// ldmsd: the standalone daemon binary. Runs a sampler and/or aggregator
// configured by the ldmsd command language (see daemon/config.hpp), serving
// real TCP — a multi-process deployment looks exactly like the paper's
// Figure 3/4 topologies.
//
//   ldmsd -x sock:127.0.0.1:10001 -n nid0001 -c sampler.conf [-m bytes]
//         [-l logfile] [-v] [-F]
//
//   -x transport:address   listen endpoint (sock:host:port, local:name, ...)
//   -n name                daemon/producer name
//   -c file                configuration script (ldmsd command language)
//   -m bytes               metric-set memory pool size (default 1 MB)
//   -l file                log file (default stderr)
//   -S path                UNIX domain control socket (runtime reconfig via
//                          ldmsd_controller)
//   -r path                cluster registry file: the producers, store
//                          policies and tree are persisted crash-safely as
//                          prdcr_add/strgp_add/tree records and replayed at
//                          startup, so a restart resumes collection with no
//                          config script
//   -k path                control-socket key file (created 0600 if absent);
//                          mutating control verbs then require a MAC
//                          (ldmsd_controller -k) — see daemon/keys.hpp
//   -v                     verbose (info-level) logging
//   -F                     stay in the foreground for N seconds then exit
//                          (default: run until SIGINT/SIGTERM)
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <semaphore>
#include <sstream>

#include "daemon/config.hpp"
#include "daemon/control.hpp"
#include "daemon/keys.hpp"
#include "daemon/ldmsd.hpp"
#include "daemon/plugin_registry.hpp"
#include "sampler/samplers.hpp"
#include "util/strings.hpp"

namespace {

std::binary_semaphore g_shutdown(0);

void HandleSignal(int) { g_shutdown.release(); }

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [-x transport:addr] [-n name] [-c config] "
               "[-m bytes] [-l log] [-S ctl] [-r registry] [-k keyfile] "
               "[-v] [-F seconds]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ldmsxx;

  LdmsdOptions options;
  options.name = "ldmsd";
  options.set_memory = 1 << 20;
  std::string config_path;
  std::string control_socket;
  std::string key_path;
  int foreground_seconds = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "-x") {
      const std::string endpoint = next();
      const auto colon = endpoint.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "bad -x endpoint: %s\n", endpoint.c_str());
        return 2;
      }
      options.listen_transport = endpoint.substr(0, colon);
      options.listen_address = endpoint.substr(colon + 1);
    } else if (arg == "-n") {
      options.name = next();
    } else if (arg == "-c") {
      config_path = next();
    } else if (arg == "-m") {
      if (auto v = ParseU64(next())) options.set_memory = *v;
    } else if (arg == "-l") {
      options.log_path = next();
    } else if (arg == "-S") {
      control_socket = next();
    } else if (arg == "-r") {
      options.registry_path = next();
    } else if (arg == "-k") {
      key_path = next();
    } else if (arg == "-v") {
      options.log_level = LogLevel::kInfo;
    } else if (arg == "-F") {
      if (auto v = ParseU64(next())) {
        foreground_seconds = static_cast<int>(*v);
      }
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  RegisterBuiltinSamplers();  // real /proc sources
  RegisterBuiltinStores();

  Ldmsd daemon(options);
  if (!options.registry_path.empty()) {
    // Resume producers/stores/tree from the crash-safe registry before the
    // daemon starts collecting; a missing file is a clean first boot and a
    // corrupt one is quarantined (we keep going and rebuild from traffic).
    if (Status st = daemon.RestoreFromRegistry(PluginRegistry::Instance());
        !st.ok()) {
      std::fprintf(stderr, "ldmsd: registry restore failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  if (Status st = daemon.Start(); !st.ok()) {
    std::fprintf(stderr, "ldmsd: start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (!options.listen_transport.empty()) {
    std::printf("ldmsd %s listening on %s://%s\n", options.name.c_str(),
                options.listen_transport.c_str(),
                daemon.listen_address().c_str());
  }

  if (!config_path.empty()) {
    std::ifstream in(config_path);
    if (!in) {
      std::fprintf(stderr, "ldmsd: cannot open config %s\n",
                   config_path.c_str());
      return 1;
    }
    std::ostringstream script;
    script << in.rdbuf();
    ConfigProcessor processor(daemon);
    if (Status st = processor.ExecuteScript(script.str()); !st.ok()) {
      std::fprintf(stderr, "ldmsd: config error: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  std::unique_ptr<KeyManager> keys;
  if (!key_path.empty()) {
    if (Status st = KeyManager::LoadOrCreate(key_path, &keys); !st.ok()) {
      std::fprintf(stderr, "ldmsd: key file: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::unique_ptr<ControlServer> control;
  if (!control_socket.empty()) {
    control =
        std::make_unique<ControlServer>(daemon, control_socket, keys.get());
    if (Status st = control->Start(); !st.ok()) {
      std::fprintf(stderr, "ldmsd: control socket failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  if (foreground_seconds >= 0) {
    (void)g_shutdown.try_acquire_for(std::chrono::seconds(foreground_seconds));
  } else {
    g_shutdown.acquire();
  }
  daemon.Stop();
  return 0;
}
