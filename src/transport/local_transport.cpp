#include "transport/local_transport.hpp"

namespace ldmsxx {
namespace {

class LocalEndpoint final : public Endpoint {
 public:
  explicit LocalEndpoint(std::shared_ptr<FabricNode> node)
      : node_(std::move(node)) {}

  bool connected() const override { return !closed_ && node_->alive(); }

  void Close() override { closed_ = true; }

  Status Dir(std::vector<std::string>* instances) override {
    if (closed_) return {ErrorCode::kDisconnected, "endpoint closed"};
    return node_->WithHandler([&](ServiceHandler* h, TransportStats* srv) {
      const std::uint64_t t0 = NowSteadyNs();
      DirResponse resp{0, h->HandleDir()};
      ChargeServer(srv, NowSteadyNs() - t0);
      Account(kFrameHeaderSize,
              kFrameHeaderSize + EncodeDirResponse(resp).size(), srv);
      *instances = std::move(resp.instances);
      return Status::Ok();
    });
  }

  Status LookupEx(const std::string& instance, std::vector<std::byte>* metadata,
                  LookupExtra* extra) override {
    if (extra != nullptr) *extra = LookupExtra{};
    if (closed_) return {ErrorCode::kDisconnected, "endpoint closed"};
    std::uint32_t handle = kInvalidSetHandle;
    Status st = node_->WithHandler([&](ServiceHandler* h, TransportStats* srv) {
      const std::uint64_t t0 = NowSteadyNs();
      Status inner = h->HandleLookup(instance, metadata);
      if (inner.ok()) handle = h->HandleAssignHandle(instance);
      if (inner.ok() && handle == kInvalidSetHandle) {
        inner = {ErrorCode::kNotFound, "no such set: " + instance};
      }
      if (!inner.ok()) metadata->clear();
      ChargeServer(srv, NowSteadyNs() - t0);
      Account(kFrameHeaderSize + EncodeLookupRequest({instance}).size(),
              kFrameHeaderSize + LookupResponseSize(metadata->size()), srv);
      return inner;
    });
    stats_.lookups.fetch_add(1, std::memory_order_relaxed);
    if (!st.ok()) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      return st;
    }
    if (extra != nullptr) extra->handle = handle;
    return st;
  }

  void UpdateBatch(const std::vector<BatchUpdateSpec>& specs,
                   std::vector<BatchUpdateResult>* results) override {
    const std::size_t n = specs.size();
    results->assign(n, BatchUpdateResult{});
    if (n == 0) return;
    if (closed_) {
      for (auto& r : *results) {
        r.status = {ErrorCode::kDisconnected, "endpoint closed"};
      }
      return;
    }
    // One modeled request frame for the whole batch, one response frame
    // whose size depends on what each entry answered.
    const bool accept_delta = delta_updates();
    Status st = node_->WithHandler([&](ServiceHandler* h, TransportStats* srv) {
      const std::uint64_t t0 = NowSteadyNs();
      std::uint64_t resp_bytes =
          kFrameHeaderSize + UpdateBatchResponseHeaderSize();
      for (std::size_t i = 0; i < n; ++i) {
        BatchUpdateResult& r = (*results)[i];
        const MetricSetPtr set = h->HandleResolveHandle(specs[i].handle);
        ByteWriter out(&r.data);
        const ServedEntry served =
            ServeBatchEntry(set.get(), specs[i].last_dgn, accept_delta, out);
        served.CountInto(&stats_);
        served.CountInto(srv);
        r.unchanged = served.kind == BatchEntryKind::kUnchanged;
        r.delta = served.kind == BatchEntryKind::kDelta;
        if (served.kind == BatchEntryKind::kError) {
          r.status = {served.error, served.error == ErrorCode::kNotFound
                                        ? "unknown set handle"
                                        : "batch entry failed"};
        }
        resp_bytes += BatchEntrySize(served.kind, r.data.size());
      }
      ChargeServer(srv, NowSteadyNs() - t0);
      Account(kFrameHeaderSize + UpdateBatchRequestSize(n), resp_bytes, srv);
      if (srv != nullptr) {
        srv->update_batches.fetch_add(1, std::memory_order_relaxed);
        srv->updates.fetch_add(n, std::memory_order_relaxed);
      }
      return Status::Ok();
    });
    stats_.updates.fetch_add(n, std::memory_order_relaxed);
    stats_.update_batches.fetch_add(1, std::memory_order_relaxed);
    if (!st.ok()) {
      // The node died: the whole batch is lost.
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      for (auto& r : *results) {
        r.status = st;
        r.unchanged = false;
        r.delta = false;
        r.data.clear();
      }
    }
  }

  Status Advertise(const AdvertiseMsg& msg) override {
    if (closed_) return {ErrorCode::kDisconnected, "endpoint closed"};
    return node_->WithHandler([&](ServiceHandler* h, TransportStats* srv) {
      h->HandleAdvertise(msg);
      Account(kFrameHeaderSize + EncodeAdvertise(msg).size(), 0, srv);
      return Status::Ok();
    });
  }

  Status RemoteQuery(const QueryRequest& req, QueryResponse* resp) override {
    *resp = QueryResponse{};
    if (closed_) return {ErrorCode::kDisconnected, "endpoint closed"};
    Status st = node_->WithHandler([&](ServiceHandler* h, TransportStats* srv) {
      const std::uint64_t t0 = NowSteadyNs();
      h->HandleQuery(req, resp);
      ChargeServer(srv, NowSteadyNs() - t0);
      // Model the frames the wire transport would have exchanged.
      Account(kFrameHeaderSize + EncodeQueryRequest(req).size(),
              kFrameHeaderSize + QueryResponseSize(*resp), srv);
      return Status::Ok();
    });
    if (!st.ok()) stats_.errors.fetch_add(1, std::memory_order_relaxed);
    return st;
  }

 private:
  void ChargeServer(TransportStats* srv, std::uint64_t ns) {
    if (srv != nullptr)
      srv->server_cpu_ns.fetch_add(ns, std::memory_order_relaxed);
    stats_.server_cpu_ns.fetch_add(ns, std::memory_order_relaxed);
  }

  void Account(std::uint64_t tx, std::uint64_t rx, TransportStats* srv) {
    stats_.bytes_tx.fetch_add(tx, std::memory_order_relaxed);
    stats_.bytes_rx.fetch_add(rx, std::memory_order_relaxed);
    if (srv != nullptr) {
      srv->bytes_rx.fetch_add(tx, std::memory_order_relaxed);
      srv->bytes_tx.fetch_add(rx, std::memory_order_relaxed);
    }
  }

  std::shared_ptr<FabricNode> node_;
  bool closed_ = false;
};

}  // namespace

LocalTransport::LocalTransport(Fabric* fabric)
    : fabric_(fabric != nullptr ? fabric : &Fabric::Instance()) {}

Status LocalTransport::Listen(const std::string& address,
                              ServiceHandler* handler,
                              std::unique_ptr<Listener>* listener) {
  return fabric_->Listen(address, handler, listener);
}

Status LocalTransport::Connect(const std::string& address,
                               std::unique_ptr<Endpoint>* endpoint) {
  std::shared_ptr<FabricNode> node;
  Status st = fabric_->Resolve(address, &node);
  if (!st.ok()) return st;
  *endpoint = std::make_unique<LocalEndpoint>(std::move(node));
  return Status::Ok();
}

}  // namespace ldmsxx
