// In-process "fabric": the address registry behind the local and simulated
// RDMA transports. Thousands of daemon instances in one process register
// listeners here; endpoints resolve addresses to service handlers through
// it. A reader-writer lock per node guarantees no request is in flight once
// a listener has been torn down (so a dead sampler looks to its aggregator
// exactly like a dead host: kDisconnected).
#pragma once

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "transport/transport.hpp"
#include "util/status.hpp"

namespace ldmsxx {

/// One registered listening address.
class FabricNode {
 public:
  FabricNode(ServiceHandler* handler, TransportStats* listener_stats)
      : handler_(handler), listener_stats_(listener_stats) {}

  /// Run @p fn with the handler under a shared lock; returns kDisconnected
  /// if the listener has been deactivated.
  template <typename Fn>
  Status WithHandler(Fn&& fn) {
    std::shared_lock lock(mu_);
    if (handler_ == nullptr) {
      return {ErrorCode::kDisconnected, "peer is down"};
    }
    return fn(handler_, listener_stats_);
  }

  /// Detach the handler; blocks until in-flight requests drain.
  void Deactivate() {
    std::unique_lock lock(mu_);
    handler_ = nullptr;
    listener_stats_ = nullptr;
  }

  bool alive() const {
    std::shared_lock lock(mu_);
    return handler_ != nullptr;
  }

 private:
  mutable std::shared_mutex mu_;
  ServiceHandler* handler_;
  TransportStats* listener_stats_;
};

/// Address -> node registry. Usually used through Instance(), but tests can
/// create private fabrics.
class Fabric {
 public:
  static Fabric& Instance();

  /// Register a listener; fails with kAlreadyExists on duplicate address.
  Status Register(const std::string& address,
                  std::shared_ptr<FabricNode> node);

  /// Remove an address, but only if it still maps to @p node — a listener
  /// whose registration failed must not evict the rightful owner.
  void Unregister(const std::string& address, const FabricNode* node);

  /// Resolve an address; nullptr when absent.
  std::shared_ptr<FabricNode> Find(const std::string& address) const;

  /// The listen and connect halves of a fabric transport (local, rdma).
  /// Listen registers @p handler under @p address (kAlreadyExists when
  /// taken); the listener's destruction deactivates the node, draining
  /// in-flight requests, then unregisters the address if it still maps to
  /// this node. Resolve finds the live node at @p address, kDisconnected
  /// when there is none.
  Status Listen(const std::string& address, ServiceHandler* handler,
                std::unique_ptr<Listener>* listener);
  Status Resolve(const std::string& address,
                 std::shared_ptr<FabricNode>* node) const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<FabricNode>> nodes_;
};

}  // namespace ldmsxx
