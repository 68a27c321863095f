// ldms_ls: connect to a running ldmsd and list its metric sets, like the
// production tool of the same name.
//
//   ldms_ls -x sock:127.0.0.1:10001          # list set instance names
//   ldms_ls -x sock:127.0.0.1:10001 -l       # also dump current values
#include <cstdio>
#include <string>

#include "core/mem_manager.hpp"
#include "core/metric_set.hpp"
#include "transport/registry.hpp"

int main(int argc, char** argv) {
  using namespace ldmsxx;

  std::string transport_name = "sock";
  std::string address;
  bool long_listing = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-x" && i + 1 < argc) {
      const std::string endpoint = argv[++i];
      const auto colon = endpoint.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "bad -x endpoint: %s\n", endpoint.c_str());
        return 2;
      }
      transport_name = endpoint.substr(0, colon);
      address = endpoint.substr(colon + 1);
    } else if (arg == "-l") {
      long_listing = true;
    } else {
      std::fprintf(stderr, "usage: %s -x transport:addr [-l]\n", argv[0]);
      return 2;
    }
  }
  if (address.empty()) {
    std::fprintf(stderr, "usage: %s -x transport:addr [-l]\n", argv[0]);
    return 2;
  }

  auto transport = TransportRegistry::Default().Get(transport_name);
  if (transport == nullptr) {
    std::fprintf(stderr, "unknown transport: %s\n", transport_name.c_str());
    return 1;
  }
  std::unique_ptr<Endpoint> endpoint;
  if (Status st = transport->Connect(address, &endpoint); !st.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::vector<std::string> instances;
  if (Status st = endpoint->Dir(&instances); !st.ok()) {
    std::fprintf(stderr, "dir failed: %s\n", st.ToString().c_str());
    return 1;
  }

  if (!long_listing) {
    for (const auto& instance : instances) {
      std::printf("%s\n", instance.c_str());
    }
    return 0;
  }

  // Look every set up (metadata + handle), then pull them all with one
  // batch, the same two steps an aggregator takes.
  MemManager mem(16 << 20);
  std::vector<MetricSetPtr> mirrors(instances.size());
  std::vector<std::string> errors(instances.size());
  std::vector<std::size_t> pulled;  // instance index of each spec
  std::vector<Endpoint::BatchUpdateSpec> specs;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    std::vector<std::byte> metadata;
    Endpoint::LookupExtra extra;
    if (Status st = endpoint->LookupEx(instances[i], &metadata, &extra);
        !st.ok()) {
      errors[i] = "lookup failed: " + st.ToString();
      continue;
    }
    Status st;
    mirrors[i] = MetricSet::CreateMirror(mem, metadata, &st);
    if (mirrors[i] == nullptr) {
      errors[i] = "bad metadata: " + st.ToString();
      continue;
    }
    pulled.push_back(i);
    specs.push_back({extra.handle, 0});
  }
  std::vector<Endpoint::BatchUpdateResult> results;
  endpoint->UpdateBatch(specs, &results);
  for (std::size_t k = 0; k < pulled.size(); ++k) {
    const std::size_t i = pulled[k];
    Endpoint::BatchUpdateResult& r = results[k];
    Status st = r.status;
    if (st.ok() && !r.unchanged) {
      st = r.delta ? mirrors[i]->ApplyDelta(r.data)
                   : mirrors[i]->ApplyData(r.data);
    }
    if (!st.ok()) errors[i] = "update failed: " + st.ToString();
  }

  for (std::size_t i = 0; i < instances.size(); ++i) {
    std::printf("%s\n", instances[i].c_str());
    if (!errors[i].empty()) {
      std::fprintf(stderr, "  %s\n", errors[i].c_str());
      continue;
    }
    const MetricSet& mirror = *mirrors[i];
    const TimeNs ts = mirror.timestamp();
    std::printf("  schema=%s producer=%s component_id=%llu ts=%llu.%06llu "
                "consistent=%d\n",
                mirror.schema().name().c_str(),
                mirror.producer_name().c_str(),
                static_cast<unsigned long long>(mirror.component_id()),
                static_cast<unsigned long long>(ts / kNsPerSec),
                static_cast<unsigned long long>((ts % kNsPerSec) / kNsPerUs),
                mirror.consistent() ? 1 : 0);
    for (std::size_t m = 0; m < mirror.schema().metric_count(); ++m) {
      const MetricDef& def = mirror.schema().metric(m);
      std::printf("  %-4s %-40s %s\n", MetricTypeName(def.type),
                  def.name.c_str(), mirror.GetValue(m).ToString().c_str());
    }
  }
  return 0;
}
