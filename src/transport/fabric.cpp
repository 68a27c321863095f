#include "transport/fabric.hpp"

namespace ldmsxx {
namespace {

class FabricListener final : public Listener {
 public:
  FabricListener(Fabric* fabric, std::string address, ServiceHandler* handler)
      : fabric_(fabric),
        address_(std::move(address)),
        node_(std::make_shared<FabricNode>(handler, &stats_)) {}

  ~FabricListener() override {
    node_->Deactivate();
    fabric_->Unregister(address_, node_.get());
  }

  std::string address() const override { return address_; }
  const std::shared_ptr<FabricNode>& node() const { return node_; }

 private:
  Fabric* fabric_;
  std::string address_;
  std::shared_ptr<FabricNode> node_;
};

}  // namespace

Fabric& Fabric::Instance() {
  static Fabric fabric;
  return fabric;
}

Status Fabric::Register(const std::string& address,
                        std::shared_ptr<FabricNode> node) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = nodes_.emplace(address, std::move(node));
  if (!inserted) {
    return {ErrorCode::kAlreadyExists, "address in use: " + address};
  }
  return Status::Ok();
}

void Fabric::Unregister(const std::string& address, const FabricNode* node) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(address);
  if (it != nodes_.end() && it->second.get() == node) nodes_.erase(it);
}

std::shared_ptr<FabricNode> Fabric::Find(const std::string& address) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(address);
  if (it == nodes_.end()) return nullptr;
  return it->second;
}

Status Fabric::Listen(const std::string& address, ServiceHandler* handler,
                      std::unique_ptr<Listener>* listener) {
  auto l = std::make_unique<FabricListener>(this, address, handler);
  Status st = Register(address, l->node());
  if (!st.ok()) return st;
  *listener = std::move(l);
  return Status::Ok();
}

Status Fabric::Resolve(const std::string& address,
                       std::shared_ptr<FabricNode>* node) const {
  *node = Find(address);
  if (*node == nullptr || !(*node)->alive()) {
    return {ErrorCode::kDisconnected, "no listener at " + address};
  }
  return Status::Ok();
}

}  // namespace ldmsxx
