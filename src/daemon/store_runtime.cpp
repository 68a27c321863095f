#include "daemon/store_runtime.hpp"

#include <algorithm>
#include <vector>

#include "util/hash.hpp"

namespace ldmsxx {

const char* ShedPolicyName(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kDropOldest:
      return "drop_oldest";
    case ShedPolicy::kDropNewest:
      return "drop_newest";
    case ShedPolicy::kBlock:
      return "block";
  }
  return "?";
}

bool ParseShedPolicy(const std::string& text, ShedPolicy* out) {
  if (text == "drop_oldest") {
    *out = ShedPolicy::kDropOldest;
  } else if (text == "drop_newest") {
    *out = ShedPolicy::kDropNewest;
  } else if (text == "block") {
    *out = ShedPolicy::kBlock;
  } else {
    return false;
  }
  return true;
}

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "?";
}

StorePolicyRuntime::StorePolicyRuntime(StorePolicy policy, Clock* clock,
                                       Logger* log, StoreCounters* counters)
    : policy_(std::move(policy)),
      clock_(clock),
      log_(log),
      counters_(counters),
      jitter_rng_(Fnv1a(policy_.name) ^ 0x73747267705f6271ull) {
  if (!policy_.decomp.empty()) {
    DecompSpec spec;
    const Status st = ParseDecompSpec(policy_.decomp, &spec);
    if (st.ok()) {
      decomposer_ = std::make_unique<Decomposer>(std::move(spec));
    } else {
      // Config validates the spec before the policy reaches us; a bad spec
      // here means a hand-built policy — store whole sets rather than drop.
      log_->Error("strgp ", policy_.name, " decomp rejected: ",
                  st.ToString());
    }
  }
}

bool StorePolicyRuntime::Matches(const MetricSet& set) const {
  if (!policy_.schema_filter.empty() &&
      policy_.schema_filter != set.schema().name()) {
    return false;
  }
  if (!policy_.producer_filter.empty() &&
      policy_.producer_filter != set.producer_name()) {
    return false;
  }
  return true;
}

void StorePolicyRuntime::Submit(MetricSetPtr set,
                                std::shared_ptr<std::mutex> set_mu,
                                ThreadPool* pool) {
  if (!Matches(*set)) return;
  Pending item{std::move(set), std::move(set_mu)};

  if (pool == nullptr) {
    // Inline mode (store_threads = 0): no queue, but the breaker still
    // gates the write so a dead store cannot stall a simulation loop.
    if (batched()) {
      WriteBatch(&item, 1);
    } else {
      WriteOne(item);
    }
    return;
  }

  bool schedule = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Shed at the door while quarantined: enqueueing samples the breaker
    // would refuse at write time only fills the queue with doomed data and
    // evicts samples that could have been written after recovery.
    if (policy_.breaker_threshold > 0 &&
        (breaker_ == BreakerState::kHalfOpen ||
         (breaker_ == BreakerState::kOpen &&
          clock_->Now() < retry_at_))) {
      ++shed_samples_;
      ++quarantine_gap_;
      ++episode_gap_;
      counters_->shed_samples.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::size_t cap = policy_.queue_capacity;
    if (cap > 0 && queue_.size() >= cap) {
      switch (policy_.shed_policy) {
        case ShedPolicy::kDropOldest:
          queue_.pop_front();
          ++shed_samples_;
          counters_->shed_samples.fetch_add(1, std::memory_order_relaxed);
          break;
        case ShedPolicy::kDropNewest:
          ++shed_samples_;
          counters_->shed_samples.fetch_add(1, std::memory_order_relaxed);
          return;
        case ShedPolicy::kBlock:
          space_cv_.wait(lock, [this, cap] {
            return stopping_ || queue_.size() < cap;
          });
          if (stopping_ && queue_.size() >= cap) {
            ++shed_samples_;
            counters_->shed_samples.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          break;
      }
    }
    queue_.push_back(std::move(item));
    if (queue_.size() > queue_high_water_) queue_high_water_ = queue_.size();
    if (!draining_) {
      draining_ = true;
      schedule = true;
    }
  }
  if (schedule) {
    pool->Submit([this, pool] { DrainBatch(pool); });
  }
}

void StorePolicyRuntime::DrainBatch(ThreadPool* pool) {
  std::vector<Pending> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t n = std::min(queue_.size(), kDrainBatch);
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    if (n == 0) {
      draining_ = false;
      return;
    }
  }
  space_cv_.notify_all();
  if (batched()) {
    // One store call per drain trip: the columnar path amortizes the
    // store's internal lock and plan lookup over the whole batch instead
    // of paying them per sample.
    WriteBatch(batch.data(), batch.size());
  } else {
    for (const Pending& item : batch) WriteOne(item);
  }
  bool more = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) {
      draining_ = false;
    } else {
      more = true;  // keep draining_; the resubmitted task continues
    }
  }
  // Resubmit instead of looping so a deep queue on one policy yields the
  // worker between batches and siblings get stored too.
  if (more) pool->Submit([this, pool] { DrainBatch(pool); });
}

void StorePolicyRuntime::DrainInline() {
  for (;;) {
    Pending item;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) {
        draining_ = false;
        return;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    space_cv_.notify_all();
    if (batched()) {
      WriteBatch(&item, 1);
    } else {
      WriteOne(item);
    }
  }
}

void StorePolicyRuntime::BeginShutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  space_cv_.notify_all();
}

bool StorePolicyRuntime::AdmitLocked() {
  if (policy_.breaker_threshold == 0) return true;
  switch (breaker_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kHalfOpen:
      // A probe is already in flight; exactly one write may test the store.
      return false;
    case BreakerState::kOpen:
      if (clock_->Now() < retry_at_) return false;
      breaker_ = BreakerState::kHalfOpen;
      log_->Info("strgp ", policy_.name, " breaker half-open: probing after ",
                 backoff_ / kNsPerMs, "ms quarantine");
      return true;
  }
  return true;
}

void StorePolicyRuntime::RecordOutcomeLocked(bool ok, const Status& st,
                                             std::uint64_t samples) {
  if (ok) {
    stores_ += samples;
    counters_->stores.fetch_add(samples, std::memory_order_relaxed);
    consecutive_failures_ = 0;
    if (breaker_ == BreakerState::kHalfOpen) {
      breaker_ = BreakerState::kClosed;
      backoff_ = 0;
      retry_at_ = 0;
      ++breaker_recoveries_;
      counters_->breaker_recoveries.fetch_add(1, std::memory_order_relaxed);
      log_->Info("strgp ", policy_.name, " breaker closed: store recovered, ",
                 episode_gap_, " samples shed during quarantine");
    }
    return;
  }
  store_failures_ += samples;
  counters_->store_failures.fetch_add(samples, std::memory_order_relaxed);
  ++consecutive_failures_;
  log_->Error("store ", policy_.store->name(), " failed: ", st.ToString());
  if (policy_.breaker_threshold == 0) return;
  // Grow the quarantine window: exponential doubling min→max with ±25%
  // deterministic jitter, the same discipline as producer reconnects.
  auto reopen = [this] {
    const DurationNs min_backoff = policy_.breaker_min_backoff;
    const DurationNs max_backoff =
        std::max(policy_.breaker_max_backoff, min_backoff);
    backoff_ = backoff_ == 0 ? min_backoff
                             : std::min(backoff_ * 2, max_backoff);
    const double jitter = 0.75 + 0.5 * jitter_rng_.NextDouble();
    retry_at_ = clock_->Now() + static_cast<DurationNs>(
                                    static_cast<double>(backoff_) * jitter);
    breaker_ = BreakerState::kOpen;
  };
  if (breaker_ == BreakerState::kHalfOpen) {
    reopen();
    log_->Warn("strgp ", policy_.name, " breaker re-opened: probe failed, "
               "next probe in ", backoff_ / kNsPerMs, "ms");
  } else if (breaker_ == BreakerState::kClosed &&
             consecutive_failures_ >= policy_.breaker_threshold) {
    episode_gap_ = 0;
    reopen();
    ++breaker_trips_;
    counters_->breaker_trips.fetch_add(1, std::memory_order_relaxed);
    log_->Warn("strgp ", policy_.name, " breaker tripped after ",
               consecutive_failures_, " consecutive failures; quarantined ",
               backoff_ / kNsPerMs, "ms");
  }
}

void StorePolicyRuntime::WriteOne(const Pending& item) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!AdmitLocked()) {
      ++shed_samples_;
      ++quarantine_gap_;
      ++episode_gap_;
      counters_->shed_samples.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  const std::uint64_t t0 = NowSteadyNs();
  Status st;
  {
    std::lock_guard<std::mutex> set_lock(*item.set_mu);
    st = policy_.store->StoreSet(*item.set);
  }
  counters_->store_ns.fetch_add(NowSteadyNs() - t0,
                                std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  RecordOutcomeLocked(st.ok(), st);
}

void StorePolicyRuntime::WriteBatch(const Pending* items, std::size_t n) {
  if (n == 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!AdmitLocked()) {
      shed_samples_ += n;
      quarantine_gap_ += n;
      episode_gap_ += n;
      counters_->shed_samples.fetch_add(n, std::memory_order_relaxed);
      return;
    }
  }
  const std::uint64_t t0 = NowSteadyNs();
  Status st;               // the store call's outcome
  Status decomp_st;        // first decomposition error, if any
  std::uint64_t attempted = n;  // samples handed to the store call
  std::uint64_t written = 0;
  if (decomposer_ != nullptr) {
    std::lock_guard<std::mutex> write_lock(write_mu_);
    row_scratch_.Clear();
    attempted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::lock_guard<std::mutex> set_lock(*items[i].set_mu);
      const Status ds = decomposer_->Decompose(*items[i].set, &row_scratch_);
      if (ds.ok()) {
        ++attempted;
      } else if (decomp_st.ok()) {
        decomp_st = ds;
      }
    }
    if (attempted > 0) {
      st = policy_.store->StoreRows(row_scratch_);
      written = st.ok() ? attempted : 0;
    }
  } else {
    std::vector<Store::BatchItem> batch(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch[i] = {items[i].set.get(), items[i].set_mu.get()};
    }
    std::size_t stored = 0;
    st = policy_.store->StoreSetBatch(batch.data(), n, &stored);
    written = st.ok() ? n : std::min<std::uint64_t>(stored, n);
  }
  counters_->store_ns.fetch_add(NowSteadyNs() - t0,
                                std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  // Every sample lands in exactly one bucket: decompose_failures (never a
  // breaker strike — the store was not at fault), stores, or
  // store_failures. A store call that returned an error is one strike,
  // with the samples that did land still counted.
  if (!decomp_st.ok()) {
    decompose_failures_ += n - attempted;
    log_->Error("strgp ", policy_.name, " decomposition failed: ",
                decomp_st.ToString());
  }
  if (written > 0) {
    RecordOutcomeLocked(true, Status::Ok(), written);
  }
  if (!st.ok()) {
    RecordOutcomeLocked(false, st, attempted - written);
  } else if (attempted == 0 && breaker_ == BreakerState::kHalfOpen) {
    // The admitted probe never reached the store; let the next sample probe.
    breaker_ = BreakerState::kOpen;
  }
}

StorePolicyStatus StorePolicyRuntime::status() const {
  StorePolicyStatus s;
  std::lock_guard<std::mutex> lock(mu_);
  s.known = true;
  s.name = policy_.name;
  s.queue_depth = queue_.size();
  s.queue_high_water = queue_high_water_;
  s.stores = stores_;
  s.store_failures = store_failures_;
  s.shed_samples = shed_samples_;
  s.breaker = breaker_;
  s.consecutive_failures = consecutive_failures_;
  s.breaker_trips = breaker_trips_;
  s.breaker_recoveries = breaker_recoveries_;
  s.quarantine_gap = quarantine_gap_;
  s.current_backoff = breaker_ == BreakerState::kClosed ? 0 : backoff_;
  s.store_evictions = policy_.store->rows_evicted();
  s.decompose_failures = decompose_failures_;
  return s;
}

}  // namespace ldmsxx
