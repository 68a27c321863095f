// Decorators the traced run wraps around the daemon's plugin interfaces, so
// spans are recorded around every call into a layer without touching the
// program's code. Each forwards to the wrapped object and records one span:
//
//   TracingSampler   "sampler.<plugin>"   around SamplerPlugin::Sample
//   TracingTransport "transport.<role>_batch" around Endpoint::UpdateBatch,
//                    "transport.<role>_remote_query" around RemoteQuery
//   TracingStore     "store.write"        around every store write
//
// Endpoint::stats() is not virtual and the daemon reads it to account wire
// bytes, so the endpoint decorator copies the inner endpoint's counters into
// its own after every forwarded call. The query verb resolves its store with
// dynamic_cast<TsdbStore*>, so TracingStore only wraps policies no verb
// queries.
#pragma once

#include <memory>
#include <string>

#include "daemon/plugin.hpp"
#include "store/store.hpp"
#include "trace.hpp"
#include "transport/transport.hpp"

namespace perfbench {

class TracingSampler final : public ldmsxx::SamplerPlugin {
 public:
  TracingSampler(ldmsxx::SamplerPluginPtr inner, Tracer* tracer);

  const std::string& name() const override { return inner_->name(); }
  ldmsxx::Status Init(ldmsxx::MemManager& mem, ldmsxx::SetRegistry& sets,
                      const ldmsxx::PluginParams& params) override {
    return inner_->Init(mem, sets, params);
  }
  ldmsxx::Status Sample(ldmsxx::TimeNs now) override;
  std::vector<ldmsxx::MetricSetPtr> Sets() const override {
    return inner_->Sets();
  }

 private:
  ldmsxx::SamplerPluginPtr inner_;
  Tracer* tracer_;
  std::string span_;
};

class TracingTransport final : public ldmsxx::Transport {
 public:
  /// @param role "leaf", "root" or "front": which daemon dials through it.
  TracingTransport(std::shared_ptr<ldmsxx::Transport> inner, Tracer* tracer,
                   std::string role)
      : inner_(std::move(inner)), tracer_(tracer), role_(std::move(role)) {}

  const std::string& name() const override { return inner_->name(); }
  ldmsxx::Status Listen(const std::string& address,
                        ldmsxx::ServiceHandler* handler,
                        std::unique_ptr<ldmsxx::Listener>* listener) override {
    return inner_->Listen(address, handler, listener);
  }
  ldmsxx::Status Connect(const std::string& address,
                         std::unique_ptr<ldmsxx::Endpoint>* endpoint) override;

 private:
  std::shared_ptr<ldmsxx::Transport> inner_;
  Tracer* tracer_;
  std::string role_;
};

class TracingStore final : public ldmsxx::Store {
 public:
  TracingStore(std::shared_ptr<ldmsxx::Store> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  const std::string& name() const override { return inner_->name(); }
  bool row_capable() const override { return inner_->row_capable(); }
  bool batch_capable() const override { return inner_->batch_capable(); }
  ldmsxx::Status StoreSet(const ldmsxx::MetricSet& set) override;
  ldmsxx::Status StoreRows(const ldmsxx::RowBatch& batch) override;
  ldmsxx::Status StoreSetBatch(const BatchItem* items, std::size_t n,
                               std::size_t* stored) override;
  ldmsxx::Status Flush() override { return inner_->Flush(); }

 private:
  std::shared_ptr<ldmsxx::Store> inner_;
  Tracer* tracer_;
};

}  // namespace perfbench
