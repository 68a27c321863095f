#include "daemon/registry.hpp"

#include <cstdio>
#include <sstream>

#include "daemon/config.hpp"
#include "util/atomic_file.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"

namespace ldmsxx {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

/// ',' and ':' stay literal: they separate items inside the verbs' own
/// values (sets=a,b samplers=n:1), which the verb parser splits after
/// decoding, so escaping them would only lengthen the record.
bool Unreserved(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '.' || c == '_' ||
         c == '/' || c == '@' || c == ',' || c == ':';
}

/// Percent-encode so a key or value is a single whitespace-free token with
/// no '='.
std::string Encode(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (Unreserved(c)) {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHexDigits[static_cast<std::uint8_t>(c) >> 4]);
      out.push_back(kHexDigits[static_cast<std::uint8_t>(c) & 0xf]);
    }
  }
  return out;
}

/// Lowercase only, the writer's form: no second spelling of a byte passes.
bool HexVal(char c, int* v) {
  if (c >= '0' && c <= '9') *v = c - '0';
  else if (c >= 'a' && c <= 'f') *v = c - 'a' + 10;
  else return false;
  return true;
}

bool Decode(std::string_view token, std::string* out) {
  out->clear();
  out->reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out->push_back(token[i]);
      continue;
    }
    int hi = 0;
    int lo = 0;
    if (i + 2 >= token.size() || !HexVal(token[i + 1], &hi) ||
        !HexVal(token[i + 2], &lo)) {
      return false;
    }
    out->push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return true;
}

std::string HexU64(std::uint64_t v) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHexDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::optional<std::uint64_t> ParseHexU64(std::string_view text) {
  if (text.size() != 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : text) {
    int nibble = 0;
    if (!HexVal(c, &nibble)) return std::nullopt;
    v = (v << 4) | static_cast<std::uint64_t>(nibble);
  }
  return v;
}

/// Decode one record's `key=value` tokens. False on a token without '=', a
/// bad escape, or a repeated key.
bool DecodeArgs(std::string_view text, PluginParams* args) {
  for (const std::string_view token : SplitWhitespace(text)) {
    const std::size_t eq = token.find('=');
    std::string key;
    std::string value;
    if (eq == std::string_view::npos || !Decode(token.substr(0, eq), &key) ||
        !Decode(token.substr(eq + 1), &value) ||
        !args->emplace(std::move(key), std::move(value)).second) {
      return false;
    }
  }
  return true;
}

void AppendRecord(std::string* body, std::string_view kind,
                  const PluginParams& args) {
  body->append(kind);
  for (const auto& [key, value] : args) {
    body->push_back(' ');
    body->append(Encode(key)).push_back('=');
    body->append(Encode(value));
  }
  body->push_back('\n');
}

std::string NameOf(const PluginParams& args) {
  auto it = args.find("name");
  return it != args.end() ? it->second : std::string();
}

constexpr std::string_view kHeaderTag = "#ldmsxx-registry v2";

std::size_t CountEntries(const RegistrySnapshot& snapshot) {
  return snapshot.producers.size() + snapshot.stores.size() +
         (snapshot.tree ? 1 : 0);
}

/// Validate one decoded record through its verb's parser and file it.
Status AddRecord(std::string_view kind, PluginParams args,
                 RegistrySnapshot* out) {
  Status st;
  bool unique = true;
  if (kind == "prdcr_add") {
    ProducerConfig config;
    st = ParsePrdcrAdd(args, &config);
    if (st.ok()) {
      unique = out->producers.emplace(config.name, std::move(args)).second;
    }
  } else if (kind == "strgp_add") {
    StorePolicy policy;
    st = ParseStrgpAdd(args, &policy);
    if (st.ok() && !args.contains("name")) {
      st = {ErrorCode::kInvalidArgument, "no name="};
    }
    if (st.ok()) {
      unique = out->stores.emplace(policy.name, std::move(args)).second;
    }
  } else if (kind == "tree") {
    TreeOptions options;
    std::vector<std::size_t> down;
    st = ParseTreeArgs(args, &options, &down);
    unique = !out->tree;
    if (st.ok() && unique) out->tree = std::move(args);
  } else {
    st = {ErrorCode::kInvalidArgument, "unknown record kind"};
  }
  if (st.ok() && !unique) st = {ErrorCode::kInvalidArgument, "repeated"};
  if (st.ok()) return st;
  return {ErrorCode::kInvalidArgument,
          "registry: " + std::string(kind) + " record: " + st.message()};
}

}  // namespace

PluginParams TreeArgs(const TreeOptions& options,
                      const std::vector<std::size_t>& down_leaves) {
  std::string leaves;
  for (const auto& leaf : options.leaves) {
    if (!leaves.empty()) leaves.push_back(',');
    leaves += leaf;
  }
  std::string samplers;
  for (const auto& s : options.samplers) {
    if (!samplers.empty()) samplers.push_back(',');
    samplers += s.name + ":" + std::to_string(s.node_id);
  }
  std::string down;
  for (const std::size_t leaf : down_leaves) {
    if (!down.empty()) down.push_back(',');
    down += std::to_string(leaf);
  }
  return {{"seed", std::to_string(options.seed)},
          {"root", options.root_name},
          {"spare", options.spare_name},
          {"leaves", leaves},
          {"samplers", samplers},
          {"down", down}};
}

Status ParseTreeArgs(const PluginParams& args, TreeOptions* options,
                     std::vector<std::size_t>* down_leaves) {
  *options = TreeOptions{};
  down_leaves->clear();
  auto items = [&args](const char* key) {
    std::vector<std::string_view> out;
    auto it = args.find(key);
    if (it == args.end()) return out;
    for (const auto item : Split(it->second, ',')) {
      if (!item.empty()) out.push_back(item);
    }
    return out;
  };
  if (auto it = args.find("seed"); it != args.end()) {
    const auto seed = ParseU64(it->second);
    if (!seed) return {ErrorCode::kInvalidArgument, "bad seed=" + it->second};
    options->seed = *seed;
  }
  if (auto it = args.find("root"); it != args.end())
    options->root_name = it->second;
  if (auto it = args.find("spare"); it != args.end())
    options->spare_name = it->second;
  for (const auto leaf : items("leaves")) options->leaves.emplace_back(leaf);
  for (const auto item : items("samplers")) {
    // Split at the last ':' — sampler names may contain ':' themselves.
    const std::size_t colon = item.rfind(':');
    const auto id = colon == std::string_view::npos
                        ? std::nullopt
                        : ParseU64(item.substr(colon + 1));
    if (!id) {
      return {ErrorCode::kInvalidArgument,
              "bad samplers item '" + std::string(item) + "'"};
    }
    options->samplers.push_back(
        TreeSamplerId{std::string(item.substr(0, colon)), *id});
  }
  for (const auto item : items("down")) {
    const auto leaf = ParseU64(item);
    if (!leaf) {
      return {ErrorCode::kInvalidArgument,
              "bad down item '" + std::string(item) + "'"};
    }
    down_leaves->push_back(static_cast<std::size_t>(*leaf));
  }
  return Status::Ok();
}

std::string SerializeRegistry(const RegistrySnapshot& snapshot) {
  // Restore order: the tree, then store policies, then producers.
  std::string body;
  if (snapshot.tree) AppendRecord(&body, "tree", *snapshot.tree);
  for (const auto& [name, args] : snapshot.stores) {
    AppendRecord(&body, "strgp_add", args);
  }
  for (const auto& [name, args] : snapshot.producers) {
    AppendRecord(&body, "prdcr_add", args);
  }
  std::string out(kHeaderTag);
  out.append(" crc=").append(HexU64(Fnv1a(body)));
  out.append(" entries=").append(std::to_string(CountEntries(snapshot)));
  out.push_back('\n');
  out.append(body);
  return out;
}

Status ParseRegistry(std::string_view text, RegistrySnapshot* out) {
  *out = RegistrySnapshot{};
  const std::size_t newline = text.find('\n');
  if (newline == std::string_view::npos) {
    return {ErrorCode::kInconsistent, "registry: missing header line"};
  }
  const std::string_view header = text.substr(0, newline);
  const std::string_view body = text.substr(newline + 1);
  if (!StartsWith(header, kHeaderTag)) {
    return {ErrorCode::kInconsistent, "registry: bad magic/version"};
  }
  PluginParams fields;
  std::optional<std::uint64_t> want_crc;
  std::optional<std::uint64_t> want_entries;
  if (DecodeArgs(header.substr(kHeaderTag.size()), &fields) &&
      fields.size() == 2 && fields.contains("crc") &&
      fields.contains("entries")) {
    want_crc = ParseHexU64(fields["crc"]);
    want_entries = ParseU64(fields["entries"]);
  }
  if (!want_crc || !want_entries) {
    return {ErrorCode::kInconsistent, "registry: malformed header"};
  }
  if (Fnv1a(body) != *want_crc) {
    return {ErrorCode::kInconsistent, "registry: body checksum mismatch"};
  }

  std::uint64_t entries = 0;
  for (const auto raw_line : Split(body, '\n')) {
    const std::string_view line = Trim(raw_line);
    if (line.empty()) continue;
    ++entries;
    const std::size_t space = line.find(' ');
    const std::string_view kind = line.substr(0, space);
    PluginParams args;
    if (space != std::string_view::npos &&
        !DecodeArgs(line.substr(space + 1), &args)) {
      return {ErrorCode::kInvalidArgument,
              "registry: malformed " + std::string(kind) + " record"};
    }
    Status st = AddRecord(kind, std::move(args), out);
    if (!st.ok()) return st;
  }
  if (entries != *want_entries) {
    return {ErrorCode::kInconsistent, "registry: entry count mismatch"};
  }
  return Status::Ok();
}

ClusterRegistry::ClusterRegistry(std::string path) : path_(std::move(path)) {}

void ClusterRegistry::QuarantineLocked() {
  for (int n = 1; n < 1000; ++n) {
    const std::string target = path_ + ".corrupt." + std::to_string(n);
    // Probe-by-read keeps this dependency-free; a duplicate between the
    // probe and the rename is impossible in the single-daemon-per-registry
    // model this implements.
    std::string probe;
    if (ReadFileToString(target, &probe).code() != ErrorCode::kNotFound) {
      continue;
    }
    if (::rename(path_.c_str(), target.c_str()) == 0) {
      ++stats_.quarantines;
    }
    return;
  }
}

Status ClusterRegistry::Load() {
  std::lock_guard<std::mutex> lock(mu_);
  last_load_quarantined_ = false;
  ++stats_.loads;
  stats_.last_load_records = 0;
  state_ = RegistrySnapshot{};
  std::string text;
  Status st = ReadFileToString(path_, &text);
  if (st.code() == ErrorCode::kNotFound) return Status::Ok();
  if (!st.ok()) return st;
  RegistrySnapshot parsed;
  st = ParseRegistry(text, &parsed);
  if (!st.ok()) {
    // The recovery ladder's last rung: move the torn file aside and rebuild
    // from live traffic rather than refuse to start or trust bad data.
    QuarantineLocked();
    last_load_quarantined_ = true;
    return Status::Ok();
  }
  state_ = std::move(parsed);
  stats_.last_load_records = CountEntries(state_);
  return Status::Ok();
}

Status ClusterRegistry::SaveLocked() {
  Status st = AtomicWriteFile(path_, SerializeRegistry(state_), 0644);
  if (!st.ok()) {
    ++stats_.save_failures;
    return st;
  }
  ++stats_.saves;
  return Status::Ok();
}

Status ClusterRegistry::Save() {
  std::lock_guard<std::mutex> lock(mu_);
  return SaveLocked();
}

bool ClusterRegistry::last_load_quarantined() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_load_quarantined_;
}

void ClusterRegistry::UpsertProducer(PluginParams args) {
  std::lock_guard<std::mutex> lock(mu_);
  state_.producers[NameOf(args)] = std::move(args);
}

bool ClusterRegistry::RemoveProducer(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.producers.erase(name) > 0;
}

void ClusterRegistry::UpsertStore(PluginParams args) {
  std::lock_guard<std::mutex> lock(mu_);
  state_.stores[NameOf(args)] = std::move(args);
}

void ClusterRegistry::SetTree(PluginParams args) {
  std::lock_guard<std::mutex> lock(mu_);
  state_.tree = std::move(args);
}

RegistrySnapshot ClusterRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

RegistryStats ClusterRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status ClusterRegistry::ExportTo(const std::string& export_path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return AtomicWriteFile(export_path, SerializeRegistry(state_), 0644);
}

Status ClusterRegistry::ImportFrom(const std::string& import_path) {
  std::string text;
  Status st = ReadFileToString(import_path, &text);
  if (!st.ok()) return st;
  RegistrySnapshot parsed;
  st = ParseRegistry(text, &parsed);
  if (!st.ok()) return st;
  std::lock_guard<std::mutex> lock(mu_);
  state_ = std::move(parsed);
  return SaveLocked();
}

std::string ClusterRegistry::StatusString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "path=" << path_ << " producers=" << state_.producers.size()
      << " stores=" << state_.stores.size()
      << " tree=" << (state_.tree ? 1 : 0) << " loads=" << stats_.loads
      << " saves=" << stats_.saves
      << " save_failures=" << stats_.save_failures
      << " quarantines=" << stats_.quarantines
      << " last_load_records=" << stats_.last_load_records
      << " quarantined_last_load=" << (last_load_quarantined_ ? 1 : 0);
  return out.str();
}

}  // namespace ldmsxx
