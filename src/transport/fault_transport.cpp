#include "transport/fault_transport.hpp"

#include <chrono>
#include <thread>

namespace ldmsxx {
namespace {

/// Mutate @p bytes per the decision: truncate cuts to a strict prefix,
/// corrupt flips bits at positions derived from the mutation word. Both keep
/// the result deterministic for a given draw. Empty payloads are left alone
/// (there is nothing the wire could have mangled).
void MutatePayload(FaultKind kind, std::uint64_t mutation,
                   std::vector<std::byte>* bytes) {
  if (bytes->empty()) return;
  if (kind == FaultKind::kTruncate) {
    bytes->resize(mutation % bytes->size());
    return;
  }
  // Corrupt: flip one to four bytes spread by the mutation word.
  const std::size_t flips = 1 + mutation % 4;
  std::uint64_t pos = mutation;
  for (std::size_t i = 0; i < flips; ++i) {
    pos = pos * 6364136223846793005ull + 1442695040888963407ull;
    (*bytes)[pos % bytes->size()] ^= static_cast<std::byte>(0xff & (pos >> 32));
  }
}

class FaultEndpoint final : public Endpoint {
 public:
  FaultEndpoint(std::unique_ptr<Endpoint> inner,
                std::shared_ptr<FaultSchedule> schedule)
      : inner_(std::move(inner)), schedule_(std::move(schedule)) {}

  bool connected() const override {
    return !dead_.load(std::memory_order_acquire) && inner_->connected();
  }

  void Close() override {
    dead_.store(true, std::memory_order_release);
    inner_->Close();
  }

  Status Dir(std::vector<std::string>* instances) override {
    Status st = Intercept(FaultOp::kDir, nullptr, [&] {
      return inner_->Dir(instances);
    });
    if (!st.ok()) stats_.errors.fetch_add(1, std::memory_order_relaxed);
    return st;
  }

  Status LookupEx(const std::string& instance, std::vector<std::byte>* metadata,
                  LookupExtra* extra) override {
    if (extra != nullptr) *extra = LookupExtra{};
    Status st = Intercept(FaultOp::kLookup, metadata, [&] {
      return inner_->LookupEx(instance, metadata, extra);
    });
    stats_.lookups.fetch_add(1, std::memory_order_relaxed);
    if (!st.ok()) stats_.errors.fetch_add(1, std::memory_order_relaxed);
    return st;
  }

  // Batched pull under fault injection. One Decision is drawn per entry, so
  // a seeded schedule's kUpdate stream advances with the number of sets
  // pulled, not with how they are framed. Frame semantics
  // decide the blast radius: a drawn disconnect or stall kills/steals the
  // whole batch frame (every entry fails), while truncate/corrupt mangle only
  // that entry's chunk within an otherwise-delivered response.
  void UpdateBatch(const std::vector<BatchUpdateSpec>& specs,
                   std::vector<BatchUpdateResult>* results) override {
    const std::size_t n = specs.size();
    results->assign(n, BatchUpdateResult{});
    stats_.updates.fetch_add(n, std::memory_order_relaxed);
    if (n == 0) return;
    stats_.update_batches.fetch_add(1, std::memory_order_relaxed);
    if (dead_.load(std::memory_order_acquire)) {
      for (auto& r : *results) {
        r.status = {ErrorCode::kDisconnected,
                    "endpoint closed by injected fault"};
      }
      stats_.errors.fetch_add(n, std::memory_order_relaxed);
      return;
    }
    std::vector<FaultSchedule::Decision> draws(n);
    bool disconnect = false;
    bool stall = false;
    DurationNs max_delay = 0;
    for (std::size_t i = 0; i < n; ++i) {
      draws[i] = schedule_->Draw(FaultOp::kUpdate);
      if (draws[i].kind == FaultKind::kDisconnect) disconnect = true;
      if (draws[i].kind == FaultKind::kStall) stall = true;
      if (draws[i].kind == FaultKind::kDelay && draws[i].delay > max_delay) {
        max_delay = draws[i].delay;
      }
    }
    if (disconnect) {
      dead_.store(true, std::memory_order_release);
      inner_->Close();
      for (auto& r : *results) {
        r.status = {ErrorCode::kDisconnected, "injected mid-batch disconnect"};
      }
      stats_.errors.fetch_add(n, std::memory_order_relaxed);
      return;
    }
    if (stall) {
      stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
      for (auto& r : *results) {
        r.status = {ErrorCode::kTimeout, "injected one-way stall"};
      }
      stats_.errors.fetch_add(n, std::memory_order_relaxed);
      return;
    }
    if (max_delay > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(max_delay));
    }
    // The inner endpoint is the one that negotiates deltas; keep its knob in
    // lockstep with the decorator's so tests toggling the outer endpoint get
    // the path they asked for.
    inner_->set_delta_updates(delta_updates());
    inner_->UpdateBatch(specs, results);
    for (std::size_t i = 0; i < n; ++i) {
      BatchUpdateResult& r = (*results)[i];
      if (!r.status.ok()) {
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (r.delta) stats_.updates_delta.fetch_add(1, std::memory_order_relaxed);
      if (r.unchanged || r.data.empty()) continue;
      // Truncate/corrupt mangle whatever payload the entry carried — full
      // chunk or delta alike. A mangled delta fails ApplyDelta's structural
      // validation (or its MGN/DGN checks) on the client, never a
      // half-applied mirror.
      if (draws[i].kind == FaultKind::kTruncate ||
          draws[i].kind == FaultKind::kCorrupt) {
        MutatePayload(draws[i].kind, draws[i].mutation, &r.data);
      }
    }
  }

  Status Advertise(const AdvertiseMsg& msg) override {
    return Intercept(FaultOp::kAdvertise, nullptr, [&] {
      return inner_->Advertise(msg);
    });
  }

  // Fan-out query round-trip. The response decodes into a struct, not a
  // byte buffer, so truncate/corrupt are inapplicable (Draw degrades them
  // to no-fault); disconnect/stall/delay behave exactly as for updates.
  Status RemoteQuery(const QueryRequest& req, QueryResponse* resp) override {
    *resp = QueryResponse{};
    Status st = Intercept(FaultOp::kQuery, nullptr, [&] {
      return inner_->RemoteQuery(req, resp);
    });
    if (!st.ok()) stats_.errors.fetch_add(1, std::memory_order_relaxed);
    return st;
  }

 private:
  /// Common fault wrapper. @p payload is the response buffer truncation and
  /// corruption apply to (nullptr for payload-less ops). The faulted request
  /// still reaches the peer for kTruncate/kCorrupt (the frame went out; only
  /// the response was mangled), while kDisconnect and kStall fail before the
  /// inner call — the frame never completed.
  template <typename Fn>
  Status Intercept(FaultOp op, std::vector<std::byte>* payload, Fn&& fn) {
    if (dead_.load(std::memory_order_acquire)) {
      return {ErrorCode::kDisconnected, "endpoint closed by injected fault"};
    }
    const FaultSchedule::Decision d = schedule_->Draw(op);
    switch (d.kind) {
      case FaultKind::kDisconnect:
        dead_.store(true, std::memory_order_release);
        inner_->Close();
        return {ErrorCode::kDisconnected, "injected mid-frame disconnect"};
      case FaultKind::kStall:
        // One-way stall: the request was written but no response will ever
        // arrive; a real wire transport's deadline machinery converts that
        // into kTimeout, so the decorator reports the same completion.
        stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
        return {ErrorCode::kTimeout, "injected one-way stall"};
      case FaultKind::kDelay:
        std::this_thread::sleep_for(std::chrono::nanoseconds(d.delay));
        break;
      default:
        break;
    }
    Status st = fn();
    if (st.ok() && payload != nullptr &&
        (d.kind == FaultKind::kTruncate || d.kind == FaultKind::kCorrupt)) {
      MutatePayload(d.kind, d.mutation, payload);
    }
    return st;
  }

  std::unique_ptr<Endpoint> inner_;
  std::shared_ptr<FaultSchedule> schedule_;
  std::atomic<bool> dead_{false};
};

}  // namespace

void FaultSchedule::InjectNext(FaultOp op, FaultKind kind, std::size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < count; ++i) {
    queued_[static_cast<std::size_t>(op)].push_back(kind);
  }
}

bool FaultSchedule::Applicable(FaultOp op, FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return true;
    case FaultKind::kRefuseConnect:
      return op == FaultOp::kConnect;
    case FaultKind::kTruncate:
    case FaultKind::kCorrupt:
      return op == FaultOp::kLookup || op == FaultOp::kUpdate;
    case FaultKind::kDisconnect:
    case FaultKind::kDelay:
    case FaultKind::kStall:
      return op != FaultOp::kConnect;
  }
  return false;
}

FaultSchedule::Decision FaultSchedule::Draw(FaultOp op) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_) return {};
  Decision d;
  auto& queue = queued_[static_cast<std::size_t>(op)];
  if (!queue.empty()) {
    d.kind = queue.front();
    queue.pop_front();
  } else {
    // Independent probability per kind, first hit wins; the rng is consumed
    // identically regardless of outcome so the stream stays aligned across
    // runs even when probabilities differ between scenario phases.
    const double u = rng_.NextDouble();
    double acc = 0.0;
    const std::pair<double, FaultKind> table[] = {
        {op == FaultOp::kConnect ? probs_.refuse_connect : 0.0,
         FaultKind::kRefuseConnect},
        {probs_.disconnect, FaultKind::kDisconnect},
        {probs_.stall, FaultKind::kStall},
        {probs_.truncate, FaultKind::kTruncate},
        {probs_.corrupt, FaultKind::kCorrupt},
        {probs_.delay, FaultKind::kDelay},
    };
    for (const auto& [p, kind] : table) {
      acc += p;
      if (u < acc) {
        d.kind = kind;
        break;
      }
    }
  }
  if (!Applicable(op, d.kind)) d.kind = FaultKind::kNone;
  switch (d.kind) {
    case FaultKind::kNone:
      return {};
    case FaultKind::kRefuseConnect:
      stats_.refused_connects.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kDisconnect:
      stats_.disconnects.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kDelay:
      d.delay = probs_.max_delay > 0 ? rng_.Next() % probs_.max_delay : 0;
      stats_.delays.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kTruncate:
      d.mutation = rng_.Next();
      stats_.truncations.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kCorrupt:
      d.mutation = rng_.Next();
      stats_.corruptions.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kStall:
      stats_.stalls.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return d;
}

FaultInjectingTransport::FaultInjectingTransport(
    std::shared_ptr<Transport> inner, std::shared_ptr<FaultSchedule> schedule,
    std::string name)
    : inner_(std::move(inner)),
      schedule_(std::move(schedule)),
      name_(name.empty() ? "fault+" + inner_->name() : std::move(name)) {}

Status FaultInjectingTransport::Listen(const std::string& address,
                                       ServiceHandler* handler,
                                       std::unique_ptr<Listener>* listener) {
  return inner_->Listen(address, handler, listener);
}

Status FaultInjectingTransport::Connect(const std::string& address,
                                        std::unique_ptr<Endpoint>* endpoint) {
  const FaultSchedule::Decision d = schedule_->Draw(FaultOp::kConnect);
  if (d.kind == FaultKind::kRefuseConnect) {
    return {ErrorCode::kDisconnected, "injected connection refusal"};
  }
  std::unique_ptr<Endpoint> inner_ep;
  Status st = inner_->Connect(address, &inner_ep);
  if (!st.ok()) return st;
  *endpoint = std::make_unique<FaultEndpoint>(std::move(inner_ep), schedule_);
  return Status::Ok();
}

}  // namespace ldmsxx
