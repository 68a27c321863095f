#include "daemon/topology.hpp"

#include <algorithm>
#include <sstream>

#include "sim/gemini.hpp"
#include "util/hash.hpp"

namespace ldmsxx {

namespace {

// splitmix64 finalizer: full-avalanche 64-bit mix.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t RendezvousScore(std::uint64_t seed, std::uint64_t sampler_key,
                              std::uint64_t leaf_key) {
  return Mix64(seed ^ Mix64(sampler_key ^ Mix64(leaf_key)));
}

TreeManager::TreeManager(TreeOptions options) : options_(std::move(options)) {
  alive_.assign(options_.leaves.size(), true);
  leaf_keys_.reserve(options_.leaves.size() + 1);
  for (const auto& name : options_.leaves) leaf_keys_.push_back(Fnv1a(name));
  if (has_spare()) leaf_keys_.push_back(Fnv1a(options_.spare_name));
  sampler_keys_.reserve(options_.samplers.size());
  for (const auto& s : options_.samplers) sampler_keys_.push_back(SamplerKey(s));
  owner_.assign(options_.samplers.size(), kUnassigned);
  std::lock_guard<std::mutex> lock(mu_);
  (void)RecomputeLocked();  // initial placement; no events recorded
}

std::uint64_t TreeManager::SamplerKey(const TreeSamplerId& sampler) const {
  // Fold in the node id and its Gemini router id so placement is seeded
  // from node ids over the simulated torus: the two hosts sharing a router
  // (gemini.hpp) still land independently, but the key is a pure function
  // of the torus position + name.
  const auto gemini = static_cast<std::uint64_t>(
      sim::GeminiTorus::GeminiOfNode(static_cast<int>(sampler.node_id)));
  return Mix64(sampler.node_id) ^ Mix64(gemini) ^ Fnv1a(sampler.name);
}

const std::string& TreeManager::leaf_name(std::size_t leaf) const {
  if (has_spare() && leaf == spare_index()) return options_.spare_name;
  return options_.leaves.at(leaf);
}

std::size_t TreeManager::PickLocked(std::size_t i) const {
  // Rendezvous over all leaves first: the natural owner. With a spare, a
  // dead natural owner promotes the sampler to the spare (whole shards move
  // together); without one, the argmax re-runs over the alive subset so the
  // dead shard redistributes and everyone else's owner is untouched.
  std::size_t best = kUnassigned;
  std::uint64_t best_score = 0;
  for (std::size_t l = 0; l < options_.leaves.size(); ++l) {
    if (!has_spare() && !alive_[l]) continue;
    const std::uint64_t score =
        RendezvousScore(options_.seed, sampler_keys_[i], leaf_keys_[l]);
    if (best == kUnassigned || score > best_score) {
      best = l;
      best_score = score;
    }
  }
  if (has_spare() && best != kUnassigned && !alive_[best]) return spare_index();
  return best;
}

std::vector<TreeManager::Reassignment> TreeManager::RecomputeLocked() {
  std::vector<Reassignment> moves;
  for (std::size_t i = 0; i < options_.samplers.size(); ++i) {
    const std::size_t next = PickLocked(i);
    if (next == owner_[i]) continue;
    moves.push_back({options_.samplers[i].name, owner_[i], next});
    owner_[i] = next;
  }
  return moves;
}

std::size_t TreeManager::leaf_of(const std::string& sampler) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < options_.samplers.size(); ++i) {
    if (options_.samplers[i].name == sampler) return owner_[i];
  }
  return kUnassigned;
}

std::vector<std::string> TreeManager::shard(std::size_t leaf) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < owner_.size(); ++i) {
    if (owner_[i] == leaf) out.push_back(options_.samplers[i].name);
  }
  return out;
}

bool TreeManager::leaf_alive(std::size_t leaf) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (leaf >= alive_.size()) return has_spare() && leaf == spare_index();
  return alive_[leaf];
}

std::size_t TreeManager::alive_leaf_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(
      std::count(alive_.begin(), alive_.end(), true));
}

std::vector<TreeManager::Reassignment> TreeManager::MarkLeafDown(
    std::size_t leaf, TimeNs now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (leaf >= alive_.size() || !alive_[leaf]) return {};
  alive_[leaf] = false;
  auto moves = RecomputeLocked();
  events_.push_back({now, has_spare() ? "promote" : "redistribute",
                     options_.leaves[leaf], moves.size()});
  return moves;
}

std::vector<TreeManager::Reassignment> TreeManager::MarkLeafUp(
    std::size_t leaf, TimeNs now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (leaf >= alive_.size() || alive_[leaf]) return {};
  alive_[leaf] = true;
  auto moves = RecomputeLocked();
  events_.push_back({now, "rejoin", options_.leaves[leaf], moves.size()});
  return moves;
}

std::size_t TreeManager::AddSampler(const TreeSamplerId& sampler) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < options_.samplers.size(); ++i) {
    if (options_.samplers[i].name == sampler.name) return owner_[i];
  }
  options_.samplers.push_back(sampler);
  sampler_keys_.push_back(SamplerKey(sampler));
  owner_.push_back(kUnassigned);
  const std::size_t i = owner_.size() - 1;
  owner_[i] = PickLocked(i);
  return owner_[i];
}

TreeOptions TreeManager::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

std::vector<std::size_t> TreeManager::down_leaves() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::size_t> down;
  for (std::size_t l = 0; l < alive_.size(); ++l) {
    if (!alive_[l]) down.push_back(l);
  }
  return down;
}

void TreeManager::RestoreDownLeaves(const std::vector<std::size_t>& down) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::size_t leaf : down) {
    if (leaf < alive_.size()) alive_[leaf] = false;
  }
  (void)RecomputeLocked();  // reconstruction, not repair: no events
}

std::vector<TreeManager::RepairEvent> TreeManager::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::uint64_t TreeManager::repairs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string TreeManager::StatusString() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t slots = options_.leaves.size() + (has_spare() ? 1 : 0);
  std::vector<std::size_t> sizes(slots, 0);
  std::size_t orphans = 0;
  for (std::size_t o : owner_) {
    if (o == kUnassigned) {
      ++orphans;
    } else {
      ++sizes[o];
    }
  }
  std::ostringstream out;
  out << "levels=3 root=" << options_.root_name
      << " samplers=" << owner_.size() << " leaves=" << options_.leaves.size()
      << " alive=" << std::count(alive_.begin(), alive_.end(), true)
      << " spare=" << (has_spare() ? options_.spare_name : "-")
      << " orphans=" << orphans << " shards=";
  for (std::size_t l = 0; l < slots; ++l) {
    if (l > 0) out << ":";
    out << sizes[l];
  }
  out << " repairs=" << events_.size();
  if (!events_.empty()) {
    const RepairEvent& e = events_.back();
    out << " last_repair=" << e.kind << ":" << e.leaf
        << ":moved=" << e.sets_moved << ":at_us=" << e.at / 1000;
  }
  return out.str();
}

std::string TreeManager::LeafStatusString(std::size_t leaf) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  const bool spare = has_spare() && leaf == spare_index();
  out << "leaf=" << (spare ? options_.spare_name : options_.leaves.at(leaf))
      << " alive=" << ((spare || alive_.at(leaf)) ? 1 : 0) << " samplers=";
  bool first = true;
  for (std::size_t i = 0; i < owner_.size(); ++i) {
    if (owner_[i] != leaf) continue;
    if (!first) out << ",";
    out << options_.samplers[i].name;
    first = false;
  }
  if (first) out << "-";
  return out.str();
}

}  // namespace ldmsxx
