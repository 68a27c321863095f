#include "decorators.hpp"

namespace perfbench {
namespace {

using ldmsxx::Endpoint;
using ldmsxx::Status;

void CopyStats(const ldmsxx::TransportStats& from,
               ldmsxx::TransportStats* to) {
  auto copy = [](const std::atomic<std::uint64_t>& a,
                 std::atomic<std::uint64_t>& b) {
    b.store(a.load(std::memory_order_relaxed), std::memory_order_relaxed);
  };
  copy(from.lookups, to->lookups);
  copy(from.updates, to->updates);
  copy(from.bytes_tx, to->bytes_tx);
  copy(from.bytes_rx, to->bytes_rx);
  copy(from.errors, to->errors);
  copy(from.outstanding, to->outstanding);
  copy(from.timeouts, to->timeouts);
  copy(from.server_cpu_ns, to->server_cpu_ns);
  copy(from.update_batches, to->update_batches);
  copy(from.updates_unchanged, to->updates_unchanged);
  copy(from.updates_delta, to->updates_delta);
  copy(from.delta_bytes_saved, to->delta_bytes_saved);
}

/// Forwards every call to the wrapped endpoint. The base class keeps the
/// delta and timeout knobs in non-virtual setters, so they are pushed down
/// before each forwarded call; its counters are mirrored back up after.
class TracingEndpoint final : public Endpoint {
 public:
  TracingEndpoint(std::unique_ptr<Endpoint> inner, Tracer* tracer,
                  const std::string& role)
      : inner_(std::move(inner)),
        tracer_(tracer),
        batch_span_("transport." + role + "_batch"),
        query_span_("transport." + role + "_remote_query") {
    Mirror();
  }

  bool connected() const override { return inner_->connected(); }
  void Close() override { inner_->Close(); }

  Status Dir(std::vector<std::string>* instances) override {
    Status st = Prepared()->Dir(instances);
    Mirror();
    return st;
  }
  Status Lookup(const std::string& instance,
                std::vector<std::byte>* metadata) override {
    Status st = Prepared()->Lookup(instance, metadata);
    Mirror();
    return st;
  }
  Status UpdateRaw(const std::string& instance,
                   std::vector<std::byte>* data) override {
    Status st = Prepared()->UpdateRaw(instance, data);
    Mirror();
    return st;
  }
  void LookupAsync(const std::string& instance,
                   ldmsxx::AsyncHandler handler) override {
    Prepared()->LookupAsync(instance, std::move(handler));
    Mirror();
  }
  void UpdateAsync(const std::string& instance,
                   ldmsxx::AsyncHandler handler) override {
    Prepared()->UpdateAsync(instance, std::move(handler));
    Mirror();
  }
  Status LookupEx(const std::string& instance,
                  std::vector<std::byte>* metadata,
                  LookupExtra* extra) override {
    Status st = Prepared()->LookupEx(instance, metadata, extra);
    Mirror();
    return st;
  }
  void UpdateBatch(const std::vector<BatchUpdateSpec>& specs,
                   std::vector<BatchUpdateResult>* results) override {
    {
      Tracer::Scope span(tracer_, batch_span_);
      Prepared()->UpdateBatch(specs, results);
    }
    Mirror();
  }
  Status Advertise(const ldmsxx::AdvertiseMsg& msg) override {
    Status st = Prepared()->Advertise(msg);
    Mirror();
    return st;
  }
  Status RemoteQuery(const ldmsxx::QueryRequest& req,
                     ldmsxx::QueryResponse* resp) override {
    Status st;
    {
      Tracer::Scope span(tracer_, query_span_);
      st = Prepared()->RemoteQuery(req, resp);
    }
    Mirror();
    return st;
  }
  void CorkWrites() override { inner_->CorkWrites(); }
  void UncorkWrites() override {
    inner_->UncorkWrites();
    Mirror();
  }

 private:
  Endpoint* Prepared() {
    inner_->set_delta_updates(delta_updates());
    inner_->set_request_timeout(request_timeout());
    return inner_.get();
  }
  void Mirror() { CopyStats(inner_->stats(), &stats_); }

  std::unique_ptr<Endpoint> inner_;
  Tracer* tracer_;
  std::string batch_span_;
  std::string query_span_;
};

}  // namespace

TracingSampler::TracingSampler(ldmsxx::SamplerPluginPtr inner, Tracer* tracer)
    : inner_(std::move(inner)),
      tracer_(tracer),
      span_("sampler." + inner_->name()) {}

Status TracingSampler::Sample(ldmsxx::TimeNs now) {
  Tracer::Scope span(tracer_, span_);
  return inner_->Sample(now);
}

Status TracingTransport::Connect(const std::string& address,
                                 std::unique_ptr<Endpoint>* endpoint) {
  std::unique_ptr<Endpoint> inner;
  Status st = inner_->Connect(address, &inner);
  if (!st.ok()) return st;
  *endpoint = std::make_unique<TracingEndpoint>(std::move(inner), tracer_,
                                                role_);
  return Status::Ok();
}

Status TracingStore::StoreSet(const ldmsxx::MetricSet& set) {
  Tracer::Scope span(tracer_, "store.write");
  return inner_->StoreSet(set);
}

Status TracingStore::StoreRows(const ldmsxx::RowBatch& batch) {
  Tracer::Scope span(tracer_, "store.write");
  return inner_->StoreRows(batch);
}

Status TracingStore::StoreSetBatch(const BatchItem* items, std::size_t n,
                                   std::size_t* stored) {
  Tracer::Scope span(tracer_, "store.write");
  return inner_->StoreSetBatch(items, n, stored);
}

}  // namespace perfbench
