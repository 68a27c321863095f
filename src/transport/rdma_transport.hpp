// Simulated RDMA transports. The paper's rdma (Infiniband/iWARP) and ugni
// (Gemini) plugins pull the data chunk with one-sided reads: "If the
// transport is RDMA over IB or UGNI, the data fetching {f} will not consume
// CPU cycles" on the sampler host (Figure 2). We model exactly that
// property:
//
//  * Dir/Lookup/Advertise are two-sided (they hit the handler, like sock).
//  * At lookup time the endpoint "registers" the remote set's memory by
//    resolving the set's handle once and keeping a shared_ptr to the
//    MetricSet itself, keyed by that handle.
//  * UpdateBatch serves each handle straight out of that memory with the
//    same ServeBatchEntry policy the two-sided transports run — zero
//    handler involvement, zero target CPU charged.
//
// The rdma and ugni flavors differ only in their option envelope (modeled
// per-op latency, fan-in guidance), matching the paper's observation that
// ugni sustains a higher fan-in (>15,000:1) than IB RDMA (~9,000:1).
#pragma once

#include <memory>

#include "transport/fabric.hpp"
#include "transport/transport.hpp"
#include "util/clock.hpp"

namespace ldmsxx {

struct RdmaOptions {
  /// Plugin name to present ("rdma" or "ugni").
  std::string name = "rdma";
  /// Modeled one-way latency added to each one-sided read, busy-waited on
  /// the *initiator* (aggregator) side. 0 disables latency modeling.
  DurationNs read_latency_ns = 0;
  /// Registered-memory bytes required per connection (footprint accounting;
  /// the paper cites "a few kilobytes" per connection).
  std::size_t registered_bytes_per_conn = 4096;
};

class RdmaSimTransport final : public Transport {
 public:
  explicit RdmaSimTransport(RdmaOptions options, Fabric* fabric = nullptr);

  const std::string& name() const override { return options_.name; }
  const RdmaOptions& options() const { return options_; }

  Status Listen(const std::string& address, ServiceHandler* handler,
                std::unique_ptr<Listener>* listener) override;

  Status Connect(const std::string& address,
                 std::unique_ptr<Endpoint>* endpoint) override;

  /// Convenience factories with the deployment defaults used in the paper's
  /// two production systems.
  static std::unique_ptr<RdmaSimTransport> Infiniband(Fabric* fabric = nullptr);
  static std::unique_ptr<RdmaSimTransport> Gemini(Fabric* fabric = nullptr);

 private:
  RdmaOptions options_;
  Fabric* fabric_;
};

}  // namespace ldmsxx
