// "sock" transport: real TCP. The server side is a single-threaded epoll
// reactor per listener (requests are tiny and handler work is bounded, so a
// reactor sustains the paper's ~9,000:1 fan-in without a thread per
// connection); the client side is a pipelined endpoint: requests are tagged
// with a request_id, recorded in a pending table, and written without
// waiting, while a per-endpoint reader thread completes them out of order
// as response frames arrive. Each request carries a deadline
// (Endpoint::set_request_timeout) and completes with kTimeout if the peer
// stalls; late responses are dropped by id. Every call is a submit-and-wait
// wrapper over that path, so concurrent callers (an aggregator's collection
// threads, query fan-outs) share one connection; an aggregator's whole
// per-producer pull is one kUpdateBatchReq frame (Endpoint::UpdateBatch).
//
// Addresses are "host:port"; host is resolved as a dotted quad or
// "localhost". For listeners, "*" or an empty host binds INADDR_ANY; for
// connects they mean loopback. Port 0 binds an ephemeral port —
// Listener::address() reports the actual one.
#pragma once

#include <memory>

#include "transport/transport.hpp"

namespace ldmsxx {

class SockTransport final : public Transport {
 public:
  const std::string& name() const override { return name_; }

  Status Listen(const std::string& address, ServiceHandler* handler,
                std::unique_ptr<Listener>* listener) override;

  Status Connect(const std::string& address,
                 std::unique_ptr<Endpoint>* endpoint) override;

 private:
  std::string name_ = "sock";
};

}  // namespace ldmsxx
