#include "transport/rdma_transport.hpp"

#include <unordered_map>

namespace ldmsxx {
namespace {

class RdmaListener final : public Listener {
 public:
  RdmaListener(Fabric* fabric, std::string address, ServiceHandler* handler)
      : fabric_(fabric), address_(std::move(address)) {
    node_ = std::make_shared<FabricNode>(handler, &stats_);
  }

  ~RdmaListener() override {
    node_->Deactivate();
    fabric_->Unregister(address_, node_.get());
  }

  std::string address() const override { return address_; }
  std::shared_ptr<FabricNode> node() const { return node_; }

 private:
  Fabric* fabric_;
  std::string address_;
  std::shared_ptr<FabricNode> node_;
};

class RdmaEndpoint final : public Endpoint {
 public:
  RdmaEndpoint(std::shared_ptr<FabricNode> node, const RdmaOptions& options)
      : node_(std::move(node)), options_(options) {}

  bool connected() const override { return !closed_ && node_->alive(); }

  void Close() override {
    closed_ = true;
    pinned_.clear();
  }

  Status Dir(std::vector<std::string>* instances) override {
    if (closed_) return {ErrorCode::kDisconnected, "endpoint closed"};
    return node_->WithHandler([&](ServiceHandler* h, TransportStats* srv) {
      const std::uint64_t t0 = NowSteadyNs();
      *instances = h->HandleDir();
      const std::uint64_t dt = NowSteadyNs() - t0;
      if (srv != nullptr)
        srv->server_cpu_ns.fetch_add(dt, std::memory_order_relaxed);
      return Status::Ok();
    });
  }

  // Two-sided: fetch the metadata and the set's handle, then resolve the
  // handle once to pin the set's memory for one-sided reads (memory
  // registration). Pulls address pinned sets by that handle.
  Status LookupEx(const std::string& instance, std::vector<std::byte>* metadata,
                  LookupExtra* extra) override {
    if (extra != nullptr) *extra = LookupExtra{};
    if (closed_) return {ErrorCode::kDisconnected, "endpoint closed"};
    std::uint32_t handle = kInvalidSetHandle;
    Status st = node_->WithHandler([&](ServiceHandler* h, TransportStats* srv) {
      const std::uint64_t t0 = NowSteadyNs();
      Status inner = h->HandleLookup(instance, metadata);
      MetricSetPtr target;
      if (inner.ok()) {
        handle = h->HandleAssignHandle(instance);
        target = h->HandleResolveHandle(handle);
      }
      if (inner.ok() && target == nullptr) {
        inner = {ErrorCode::kNotFound, "no such set: " + instance};
      }
      if (!inner.ok()) {
        metadata->clear();
        return inner;
      }
      pinned_[handle] = std::move(target);
      if (srv != nullptr) {
        srv->server_cpu_ns.fetch_add(NowSteadyNs() - t0,
                                     std::memory_order_relaxed);
        srv->bytes_tx.fetch_add(metadata->size(), std::memory_order_relaxed);
      }
      stats_.bytes_rx.fetch_add(metadata->size(), std::memory_order_relaxed);
      return Status::Ok();
    });
    stats_.lookups.fetch_add(1, std::memory_order_relaxed);
    if (!st.ok()) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      return st;
    }
    if (extra != nullptr) extra->handle = handle;
    return st;
  }

  // One-sided batch pull over the pinned sets: the same ServeBatchEntry
  // answers as the two-sided transports, but read straight out of the
  // registered memory, so server CPU stays uncharged throughout. The gate is
  // modeled as an 8-byte read of the header's generation number, so a
  // quiescent set costs one tiny read instead of the whole data chunk.
  void UpdateBatch(const std::vector<BatchUpdateSpec>& specs,
                   std::vector<BatchUpdateResult>* results) override {
    const std::size_t n = specs.size();
    results->assign(n, BatchUpdateResult{});
    if (n == 0) return;
    stats_.updates.fetch_add(n, std::memory_order_relaxed);
    stats_.update_batches.fetch_add(1, std::memory_order_relaxed);
    // A dead peer means the "NIC" no longer responds, even though the
    // pinned memory is still reachable in-process.
    if (closed_ || !node_->alive()) {
      const Status down = closed_
                              ? Status{ErrorCode::kDisconnected,
                                       "endpoint closed"}
                              : Status{ErrorCode::kDisconnected,
                                       "peer is down"};
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      for (auto& r : *results) r.status = down;
      return;
    }
    const bool accept_delta = delta_updates();
    for (std::size_t i = 0; i < n; ++i) {
      BatchUpdateResult& r = (*results)[i];
      auto it = pinned_.find(specs[i].handle);
      const MetricSet* target =
          it == pinned_.end() ? nullptr : it->second.get();
      if (target != nullptr) {
        if (options_.read_latency_ns > 0) SpinFor(options_.read_latency_ns);
        stats_.bytes_rx.fetch_add(8, std::memory_order_relaxed);  // gate read
      }
      ByteWriter out(&r.data);
      const ServedEntry served =
          ServeBatchEntry(target, specs[i].last_dgn, accept_delta, out);
      served.CountInto(&stats_);
      switch (served.kind) {
        case BatchEntryKind::kUnchanged:
          r.unchanged = true;
          break;
        case BatchEntryKind::kError:
          stats_.errors.fetch_add(1, std::memory_order_relaxed);
          r.status = {served.error, served.error == ErrorCode::kNotFound
                                        ? "unknown set handle"
                                        : "batch entry failed"};
          break;
        case BatchEntryKind::kDelta:
        case BatchEntryKind::kData:
          // The extent table lives beside the pinned chunk, so a delta is
          // one read of just the changed bytes.
          if (options_.read_latency_ns > 0) SpinFor(options_.read_latency_ns);
          r.delta = served.kind == BatchEntryKind::kDelta;
          stats_.bytes_rx.fetch_add(r.data.size(), std::memory_order_relaxed);
          break;
      }
    }
  }

  Status Advertise(const AdvertiseMsg& msg) override {
    if (closed_) return {ErrorCode::kDisconnected, "endpoint closed"};
    return node_->WithHandler([&](ServiceHandler* h, TransportStats*) {
      h->HandleAdvertise(msg);
      return Status::Ok();
    });
  }

 private:
  std::shared_ptr<FabricNode> node_;
  RdmaOptions options_;
  std::unordered_map<std::uint32_t, MetricSetPtr> pinned_;  // by handle
  bool closed_ = false;
};

}  // namespace

RdmaSimTransport::RdmaSimTransport(RdmaOptions options, Fabric* fabric)
    : options_(std::move(options)),
      fabric_(fabric != nullptr ? fabric : &Fabric::Instance()) {}

Status RdmaSimTransport::Listen(const std::string& address,
                                ServiceHandler* handler,
                                std::unique_ptr<Listener>* listener) {
  auto l = std::make_unique<RdmaListener>(fabric_, address, handler);
  Status st = fabric_->Register(address, l->node());
  if (!st.ok()) return st;
  *listener = std::move(l);
  return Status::Ok();
}

Status RdmaSimTransport::Connect(const std::string& address,
                                 std::unique_ptr<Endpoint>* endpoint) {
  auto node = fabric_->Find(address);
  if (node == nullptr || !node->alive()) {
    return {ErrorCode::kDisconnected, "no listener at " + address};
  }
  *endpoint = std::make_unique<RdmaEndpoint>(std::move(node), options_);
  return Status::Ok();
}

std::unique_ptr<RdmaSimTransport> RdmaSimTransport::Infiniband(Fabric* fabric) {
  RdmaOptions opts;
  opts.name = "rdma";
  opts.registered_bytes_per_conn = 8192;
  return std::make_unique<RdmaSimTransport>(std::move(opts), fabric);
}

std::unique_ptr<RdmaSimTransport> RdmaSimTransport::Gemini(Fabric* fabric) {
  RdmaOptions opts;
  opts.name = "ugni";
  opts.registered_bytes_per_conn = 4096;
  return std::make_unique<RdmaSimTransport>(std::move(opts), fabric);
}

}  // namespace ldmsxx
