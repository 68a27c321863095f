// "sock" transport: real TCP. The server side is a single-threaded epoll
// reactor per listener (requests are tiny and handler work is bounded, so a
// reactor sustains the paper's ~9,000:1 fan-in without a thread per
// connection). The client side starts no thread at all: an endpoint runs one
// request at a time on the calling thread, writing the frame and then
// reading frames until the one carrying the request's id arrives. Each
// request carries a deadline (Endpoint::set_request_timeout) and fails with
// kTimeout if the peer stalls, leaving the connection up; a late answer
// arrives under the old id and is dropped. Callers on several threads take
// turns, and an aggregator's whole per-producer pull is one kUpdateBatchReq
// frame (Endpoint::UpdateBatch), so one request in flight is all it needs.
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
