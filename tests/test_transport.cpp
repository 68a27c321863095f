// Transport tests: wire-protocol round trips, fabric lifetime semantics,
// local/sock/rdma endpoints answering the batch pull alike, one-sided RDMA
// CPU accounting, disconnects, and the sock client's one-request-at-a-time
// calls (timeouts, late answers, liveness, protocol-violating peers).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>
#include <thread>

#include "core/mem_manager.hpp"
#include "core/metric_set.hpp"
#include "transport/local_transport.hpp"
#include "transport/rdma_transport.hpp"
#include "transport/registry.hpp"
#include "transport/sock_transport.hpp"

namespace ldmsxx {
namespace {

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(MessageTest, FrameHeaderRoundTrip) {
  std::vector<std::byte> payload{std::byte{1}, std::byte{2}, std::byte{3}};
  auto frame = EncodeFrame(MsgType::kUpdateBatchReq, 77, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + 3);
  const FrameHeader hdr = DecodeFrameHeader(frame);
  EXPECT_EQ(hdr.payload_len, 3u);
  EXPECT_EQ(hdr.type, MsgType::kUpdateBatchReq);
  EXPECT_EQ(hdr.request_id, 77u);
}

TEST(MessageTest, FrameTypeNumbersAreStable) {
  // Retiring the per-set update frames (5, 6) renumbered nothing else.
  EXPECT_EQ(static_cast<int>(MsgType::kDirReq), 1);
  EXPECT_EQ(static_cast<int>(MsgType::kLookupResp), 4);
  EXPECT_EQ(static_cast<int>(MsgType::kAdvertise), 7);
  EXPECT_EQ(static_cast<int>(MsgType::kUpdateBatchReq), 8);
  EXPECT_EQ(static_cast<int>(MsgType::kUpdateBatchResp), 9);
  EXPECT_EQ(static_cast<int>(MsgType::kQueryReq), 10);
  EXPECT_EQ(static_cast<int>(MsgType::kQueryResp), 11);
}

TEST(MessageTest, AllPayloadsRoundTrip) {
  {
    DirResponse in;
    in.code = 0;
    in.instances = {"a/meminfo", "a/procstat"};
    DirResponse out;
    ASSERT_TRUE(DecodeDirResponse(EncodeDirResponse(in), &out));
    EXPECT_EQ(out.instances, in.instances);
  }
  {
    LookupRequest in{"node/set"};
    LookupRequest out;
    ASSERT_TRUE(DecodeLookupRequest(EncodeLookupRequest(in), &out));
    EXPECT_EQ(out.instance, "node/set");
  }
  {
    LookupResponse in;
    in.code = 3;
    in.metadata = {std::byte{9}, std::byte{8}};
    in.handle = 41;
    LookupResponse out;
    ASSERT_TRUE(DecodeLookupResponse(EncodeLookupResponse(in), &out));
    EXPECT_EQ(out.code, 3);
    EXPECT_EQ(out.metadata, in.metadata);
    EXPECT_EQ(out.handle, 41u);
  }
  {
    AdvertiseMsg in{"nid1", "fabric/nid1", "local"};
    AdvertiseMsg out;
    ASSERT_TRUE(DecodeAdvertise(EncodeAdvertise(in), &out));
    EXPECT_EQ(out.producer, "nid1");
    EXPECT_EQ(out.dialback_address, "fabric/nid1");
    EXPECT_EQ(out.transport, "local");
  }
}

TEST(MessageTest, TruncatedPayloadRejected) {
  LookupResponse in;
  in.metadata.assign(64, std::byte{1});
  auto bytes = EncodeLookupResponse(in);
  bytes.resize(bytes.size() / 2);
  LookupResponse out;
  EXPECT_FALSE(DecodeLookupResponse(bytes, &out));
}

// ---------------------------------------------------------------------------
// Shared harness: a minimal ServiceHandler over one metric set
// ---------------------------------------------------------------------------

/// Serves one set under one handle. Counts the calls pulls make into the
/// handler, which is what separates two-sided from one-sided transports.
class TestHandler : public ServiceHandler {
 public:
  explicit TestHandler(std::size_t metrics = 1) : mem_(1 << 20) {
    Schema schema("tset");
    for (std::size_t i = 0; i < metrics; ++i) {
      schema.AddMetric(metrics == 1 ? "value" : "m" + std::to_string(i),
                       MetricType::kU64);
    }
    Status st;
    set_ = MetricSet::Create(mem_, schema, "host/tset", "host", 1, &st);
  }

  /// One transaction writing every metric.
  void Update(std::uint64_t v) {
    set_->BeginTransaction();
    for (std::size_t i = 0; i < set_->schema().metric_count(); ++i) {
      set_->SetU64(i, v);
    }
    set_->EndTransaction(v * kNsPerSec);
  }

  /// One transaction writing only metric @p idx.
  void Touch(std::size_t idx, std::uint64_t v) {
    set_->BeginTransaction();
    set_->SetU64(idx, v);
    set_->EndTransaction(v * kNsPerSec);
  }

  std::vector<std::string> HandleDir() override { return {"host/tset"}; }

  Status HandleLookup(const std::string& instance,
                      std::vector<std::byte>* metadata) override {
    if (instance != "host/tset") return {ErrorCode::kNotFound, instance};
    auto bytes = set_->metadata_bytes();
    metadata->assign(bytes.begin(), bytes.end());
    ++lookups;
    return Status::Ok();
  }

  void HandleAdvertise(const AdvertiseMsg& msg) override {
    // Arrives on the sock reactor thread; tests poll advertised().
    std::lock_guard<std::mutex> lock(advertised_mu_);
    advertised_ = msg.producer;
  }

  std::string advertised() const {
    std::lock_guard<std::mutex> lock(advertised_mu_);
    return advertised_;
  }

  std::uint32_t HandleAssignHandle(const std::string& instance) override {
    return instance == "host/tset" ? kHandle : kInvalidSetHandle;
  }

  MetricSetPtr HandleResolveHandle(std::uint32_t handle) override {
    resolves.fetch_add(1);
    return handle == kHandle ? set_ : nullptr;
  }

  static constexpr std::uint32_t kHandle = 17;

  MemManager mem_;
  MetricSetPtr set_;
  int lookups = 0;
  std::atomic<int> resolves{0};

 private:
  mutable std::mutex advertised_mu_;
  std::string advertised_;
};

/// Pull @p mirror's set with a one-entry batch and apply the answer.
Status Pull(Endpoint& ep, std::uint32_t handle, MetricSet& mirror) {
  std::vector<Endpoint::BatchUpdateResult> results;
  ep.UpdateBatch({{handle, mirror.data_gn()}}, &results);
  if (results.size() != 1) return {ErrorCode::kInternal, "no result"};
  Endpoint::BatchUpdateResult& r = results[0];
  if (!r.status.ok() || r.unchanged) return r.status;
  return r.delta ? mirror.ApplyDelta(r.data) : mirror.ApplyData(r.data);
}

struct TransportCase {
  const char* name;
  const char* address;
};

class TransportSuite : public ::testing::TestWithParam<TransportCase> {
 protected:
  std::shared_ptr<Transport> GetTransport() {
    return TransportRegistry::Default().Get(GetParam().name);
  }
};

TEST_P(TransportSuite, FullClientFlow) {
  auto transport = GetTransport();
  ASSERT_NE(transport, nullptr);
  TestHandler handler;
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(transport->Listen(GetParam().address, &handler, &listener).ok());

  std::unique_ptr<Endpoint> ep;
  const std::string connect_addr = std::string(GetParam().name) == "sock"
                                       ? listener->address()
                                       : GetParam().address;
  ASSERT_TRUE(transport->Connect(connect_addr, &ep).ok());
  ASSERT_TRUE(ep->connected());

  std::vector<std::string> instances;
  ASSERT_TRUE(ep->Dir(&instances).ok());
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0], "host/tset");

  std::vector<std::byte> metadata;
  Endpoint::LookupExtra extra;
  ASSERT_TRUE(ep->LookupEx("host/tset", &metadata, &extra).ok());
  EXPECT_EQ(extra.handle, TestHandler::kHandle);
  MemManager local_mem(1 << 20);
  Status st;
  auto mirror = MetricSet::CreateMirror(local_mem, metadata, &st);
  ASSERT_TRUE(st.ok()) << st.ToString();

  handler.Update(42);
  ASSERT_TRUE(Pull(*ep, extra.handle, *mirror).ok());
  EXPECT_EQ(mirror->GetU64(0), 42u);

  handler.Update(43);
  ASSERT_TRUE(Pull(*ep, extra.handle, *mirror).ok());
  EXPECT_EQ(mirror->GetU64(0), 43u);

  // Unknown instances fail cleanly, and carry no handle; Lookup is LookupEx
  // without the extras.
  std::vector<std::byte> junk;
  extra.handle = 5;
  EXPECT_EQ(ep->LookupEx("missing/set", &junk, &extra).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(extra.handle, kInvalidSetHandle);
  EXPECT_TRUE(ep->Lookup("host/tset", &junk).ok());
  EXPECT_EQ(junk, metadata);

  // Advertise reaches the handler.
  ASSERT_TRUE(ep->Advertise({"nid9", "addr9", "local"}).ok());
  // sock advertise is fire-and-forget; give the reactor a moment.
  for (int i = 0; i < 100 && handler.advertised().empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(handler.advertised(), "nid9");

  EXPECT_GT(ep->stats().updates.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, TransportSuite,
    ::testing::Values(TransportCase{"local", "tx/local"},
                      TransportCase{"sock", "127.0.0.1:0"},
                      TransportCase{"rdma", "tx/rdma"},
                      TransportCase{"ugni", "tx/ugni"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(TransportSuite, DeadListenerMeansDisconnected) {
  auto transport = GetTransport();
  TestHandler handler;
  std::unique_ptr<Listener> listener;
  const std::string base_addr =
      std::string("txdead/") + GetParam().name;
  const std::string listen_addr =
      std::string(GetParam().name) == "sock" ? "127.0.0.1:0" : base_addr;
  ASSERT_TRUE(transport->Listen(listen_addr, &handler, &listener).ok());
  const std::string connect_addr = std::string(GetParam().name) == "sock"
                                       ? listener->address()
                                       : base_addr;
  std::unique_ptr<Endpoint> ep;
  ASSERT_TRUE(transport->Connect(connect_addr, &ep).ok());

  std::vector<std::byte> metadata;
  Endpoint::LookupExtra extra;
  ASSERT_TRUE(ep->LookupEx("host/tset", &metadata, &extra).ok());
  MemManager mem(1 << 20);
  Status st;
  auto mirror = MetricSet::CreateMirror(mem, metadata, &st);
  ASSERT_TRUE(st.ok());

  listener.reset();  // peer dies
  EXPECT_FALSE(Pull(*ep, extra.handle, *mirror).ok());
}

TEST(FabricTest, FailedRegistrationDoesNotEvictOwner) {
  auto transport = TransportRegistry::Default().Get("local");
  TestHandler h1;
  TestHandler h2;
  std::unique_ptr<Listener> first;
  std::unique_ptr<Listener> second;
  ASSERT_TRUE(transport->Listen("dup/addr", &h1, &first).ok());
  EXPECT_EQ(transport->Listen("dup/addr", &h2, &second).code(),
            ErrorCode::kAlreadyExists);
  // The failed listener object is gone; the original must still serve.
  std::unique_ptr<Endpoint> ep;
  ASSERT_TRUE(transport->Connect("dup/addr", &ep).ok());
  std::vector<std::string> instances;
  EXPECT_TRUE(ep->Dir(&instances).ok());
}

TEST(SockTransportTest, EphemeralPortResolved) {
  SockTransport sock;
  TestHandler handler;
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(sock.Listen("127.0.0.1:0", &handler, &listener).ok());
  EXPECT_NE(listener->address(), "127.0.0.1:0");
  EXPECT_TRUE(listener->address().starts_with("127.0.0.1:"));
}

TEST(SockTransportTest, ConnectToNothingFails) {
  SockTransport sock;
  std::unique_ptr<Endpoint> ep;
  EXPECT_FALSE(sock.Connect("127.0.0.1:1", &ep).ok());
  EXPECT_FALSE(sock.Connect("notanaddress", &ep).ok());
}

// ---------------------------------------------------------------------------
// Sock client: protocol-violating and misbehaving peers are scripted
// against a raw TCP socket, bypassing SockListener.
// ---------------------------------------------------------------------------

void WriteAllFd(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::byte*>(data);
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, p + off, size - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

bool ReadExactly(int fd, void* data, std::size_t size) {
  auto* p = static_cast<std::byte*>(data);
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::recv(fd, p + off, size - off, 0);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one whole frame; returns false on EOF/error.
bool ReadFrame(int fd, FrameHeader* hdr, std::vector<std::byte>* payload) {
  std::byte raw[kFrameHeaderSize];
  if (!ReadExactly(fd, raw, sizeof raw)) return false;
  *hdr = DecodeFrameHeader(raw);
  payload->resize(hdr->payload_len);
  return hdr->payload_len == 0 || ReadExactly(fd, payload->data(),
                                              payload->size());
}

/// Raw loopback server: accepts exactly one connection and runs @p script
/// on its fd from a background thread.
class RawPeer {
 public:
  explicit RawPeer(std::function<void(int)> script) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t alen = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([fd = listen_fd_, script = std::move(script)] {
      const int conn = ::accept(fd, nullptr, nullptr);
      if (conn >= 0) {
        script(conn);
        ::close(conn);
      }
    });
  }

  ~RawPeer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
  }

  std::string address() const {
    return "127.0.0.1:" + std::to_string(port_);
  }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(SockTransportTest, WildcardBindListensOnAllInterfaces) {
  SockTransport sock;
  TestHandler handler;
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(sock.Listen("*:0", &handler, &listener).ok());
  EXPECT_TRUE(listener->address().starts_with("0.0.0.0:"))
      << listener->address();
  // A listener bound to INADDR_ANY must be reachable via loopback.
  const std::string port =
      listener->address().substr(listener->address().rfind(':') + 1);
  std::unique_ptr<Endpoint> ep;
  ASSERT_TRUE(sock.Connect("127.0.0.1:" + port, &ep).ok());
  std::vector<std::string> instances;
  EXPECT_TRUE(ep->Dir(&instances).ok());
  // An empty host binds all interfaces too.
  std::unique_ptr<Listener> listener2;
  ASSERT_TRUE(sock.Listen(":0", &handler, &listener2).ok());
  EXPECT_TRUE(listener2->address().starts_with("0.0.0.0:"));
}

TEST(SockTransportTest, StalledPeerTimesOut) {
  // A peer that accepts and then goes silent must not wedge the caller:
  // the request completes with kTimeout within the configured deadline.
  std::mutex hold_mu;
  std::condition_variable hold_cv;
  bool release = false;
  RawPeer peer([&](int fd) {
    std::byte sink[256];
    (void)::recv(fd, sink, sizeof sink, 0);  // swallow the request, no reply
    std::unique_lock<std::mutex> lock(hold_mu);
    hold_cv.wait(lock, [&] { return release; });
  });
  SockTransport sock;
  std::unique_ptr<Endpoint> ep;
  ASSERT_TRUE(sock.Connect(peer.address(), &ep).ok());
  ep->set_request_timeout(100 * 1000 * 1000);  // 100 ms

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::byte> metadata;
  Status st = ep->Lookup("host/tset", &metadata);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(st.code(), ErrorCode::kTimeout) << st.ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_EQ(ep->stats().timeouts.load(), 1u);
  EXPECT_EQ(ep->stats().outstanding.load(), 0u);
  // The connection survives a timeout; only disconnects kill it.
  EXPECT_TRUE(ep->connected());
  {
    std::lock_guard<std::mutex> lock(hold_mu);
    release = true;
  }
  hold_cv.notify_all();
}

TEST(SockTransportTest, OversizedFrameFromPeerClosesConnection) {
  RawPeer peer([](int fd) {
    FrameHeader hdr;
    std::vector<std::byte> payload;
    if (!ReadFrame(fd, &hdr, &payload)) return;
    // Header advertising a payload over kMaxFramePayload.
    auto frame = EncodeFrame(MsgType::kLookupResp, hdr.request_id, {});
    const std::uint32_t huge = kMaxFramePayload + 1;
    std::memcpy(frame.data(), &huge, sizeof huge);
    WriteAllFd(fd, frame.data(), frame.size());
  });
  SockTransport sock;
  std::unique_ptr<Endpoint> ep;
  ASSERT_TRUE(sock.Connect(peer.address(), &ep).ok());
  std::vector<std::byte> metadata;
  Status st = ep->Lookup("host/tset", &metadata);
  EXPECT_EQ(st.code(), ErrorCode::kInternal) << st.ToString();
  EXPECT_FALSE(ep->connected());
}

TEST(SockTransportTest, PeerCloseMidFrameFailsPending) {
  RawPeer peer([](int fd) {
    FrameHeader hdr;
    std::vector<std::byte> payload;
    if (!ReadFrame(fd, &hdr, &payload)) return;
    // Half a response header, then hang up.
    auto frame = EncodeFrame(MsgType::kLookupResp, hdr.request_id,
                             EncodeLookupResponse({0, {}}));
    WriteAllFd(fd, frame.data(), kFrameHeaderSize / 2);
  });
  SockTransport sock;
  std::unique_ptr<Endpoint> ep;
  ASSERT_TRUE(sock.Connect(peer.address(), &ep).ok());
  std::vector<std::byte> metadata;
  Status st = ep->Lookup("host/tset", &metadata);
  EXPECT_EQ(st.code(), ErrorCode::kDisconnected) << st.ToString();
  EXPECT_FALSE(ep->connected());
}

/// Answer a lookup request by echoing its instance name as the metadata.
void EchoLookup(int fd, const FrameHeader& hdr,
                std::span<const std::byte> payload) {
  LookupRequest req;
  ASSERT_TRUE(DecodeLookupRequest(payload, &req));
  LookupResponse resp;
  for (char c : req.instance) resp.metadata.push_back(std::byte(c));
  auto frame = EncodeFrame(MsgType::kLookupResp, hdr.request_id,
                           EncodeLookupResponse(resp));
  WriteAllFd(fd, frame.data(), frame.size());
}

TEST(SockTransportTest, LateAnswerAfterTimeoutIsDropped) {
  // The peer holds its answer to the first lookup until the second lookup
  // has arrived, so the first call times out; then it sends the stale
  // answer right before the second one. The stale answer must be dropped
  // by request id, and the second lookup must receive its own echo.
  RawPeer peer([](int fd) {
    FrameHeader h1, h2;
    std::vector<std::byte> p1, p2;
    if (!ReadFrame(fd, &h1, &p1) || !ReadFrame(fd, &h2, &p2)) return;
    EchoLookup(fd, h1, p1);
    EchoLookup(fd, h2, p2);
  });
  SockTransport sock;
  std::unique_ptr<Endpoint> ep;
  ASSERT_TRUE(sock.Connect(peer.address(), &ep).ok());

  ep->set_request_timeout(100 * kNsPerMs);
  std::vector<std::byte> bytes;
  const Status late = ep->Lookup("alpha/set", &bytes);
  EXPECT_EQ(late.code(), ErrorCode::kTimeout) << late.ToString();
  EXPECT_TRUE(ep->connected());

  ep->set_request_timeout(2 * kNsPerSec);
  const Status st = ep->Lookup("beta/set", &bytes);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(bytes.data()),
                        bytes.size()),
            "beta/set");
  EXPECT_EQ(ep->stats().timeouts.load(), 1u);
  EXPECT_EQ(ep->stats().outstanding.load(), 0u);
}

TEST(SockTransportTest, UnencodableAnswerFailsRequestNotConnection) {
  // A set name longer than the u16 length prefix cannot be encoded. The
  // listener must not send a frame with a wrapped length (which decodes as a
  // silently truncated name); the request fails and the connection lives.
  class LongNameHandler : public TestHandler {
   public:
    std::vector<std::string> HandleDir() override {
      return {std::string(0x10000 + 7, 'n')};
    }
  };
  SockTransport sock;
  LongNameHandler handler;
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(sock.Listen("127.0.0.1:0", &handler, &listener).ok());
  std::unique_ptr<Endpoint> ep;
  ASSERT_TRUE(sock.Connect(listener->address(), &ep).ok());
  std::vector<std::string> instances;
  EXPECT_EQ(ep->Dir(&instances).code(), ErrorCode::kInternal);
  EXPECT_TRUE(instances.empty());
  std::vector<std::byte> metadata;
  EXPECT_TRUE(ep->Lookup("host/tset", &metadata).ok());
  EXPECT_TRUE(ep->connected());
}

// Callers on many threads share one connection; their calls take turns.
TEST(SockTransportTest, ConcurrentCallersShareOneConnection) {
  SockTransport sock;
  TestHandler handler;
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(sock.Listen("127.0.0.1:0", &handler, &listener).ok());
  std::unique_ptr<Endpoint> ep;
  ASSERT_TRUE(sock.Connect(listener->address(), &ep).ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ep, &failures] {
      for (int i = 0; i < kPerThread; ++i) {
        std::vector<std::byte> metadata;
        if (!ep->Lookup("host/tset", &metadata).ok() || metadata.empty()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ep->stats().lookups.load(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(ep->stats().outstanding.load(), 0u);
}

/// Threads in this process: the entries of /proc/self/task.
std::size_t ThreadCount() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(SockTransportTest, EndpointsStartNoThreads) {
  SockTransport sock;
  TestHandler handler;
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(sock.Listen("127.0.0.1:0", &handler, &listener).ok());
  const std::size_t before = ThreadCount();
  std::vector<std::unique_ptr<Endpoint>> endpoints(16);
  for (auto& ep : endpoints) {
    ASSERT_TRUE(sock.Connect(listener->address(), &ep).ok());
  }
  EXPECT_EQ(ThreadCount(), before);
  // Each still answers on its own connection.
  for (auto& ep : endpoints) {
    std::vector<std::byte> metadata;
    EXPECT_TRUE(ep->Lookup("host/tset", &metadata).ok());
  }
  EXPECT_EQ(ThreadCount(), before);
}

TEST(SockTransportTest, IdleEndpointNoticesDeadListener) {
  // A warm standby issues no requests; connected() alone must notice that
  // its peer went away.
  SockTransport sock;
  TestHandler handler;
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(sock.Listen("127.0.0.1:0", &handler, &listener).ok());
  std::unique_ptr<Endpoint> ep;
  ASSERT_TRUE(sock.Connect(listener->address(), &ep).ok());
  EXPECT_TRUE(ep->connected());
  listener.reset();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (ep->connected() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(ep->connected());
}

// One 194-metric set through every state a pull can meet. Each answer must
// match what the set itself yields (SnapshotData for a full chunk,
// SnapshotDelta for a delta) byte for byte, so all four transports give the
// same answers; and the mirror must hold the set's values after applying it.
// An unknown handle is kNotFound everywhere, one-sided reads included.
// Two-sided transports resolve the handle in the handler on every pull and
// charge the server CPU; one-sided ones do neither (Figure 2, flow {f}).
TEST_P(TransportSuite, EveryStateAnswersAsTheSetDictates) {
  auto transport = GetTransport();
  TestHandler handler(194);  // never sampled yet
  MetricSet& set = *handler.set_;
  const bool sock = std::string(GetParam().name) == "sock";
  const std::string base_addr = std::string("txstates/") + GetParam().name;
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(
      transport->Listen(sock ? "127.0.0.1:0" : base_addr, &handler, &listener)
          .ok());
  std::unique_ptr<Endpoint> ep;
  ASSERT_TRUE(
      transport->Connect(sock ? listener->address() : base_addr, &ep).ok());

  std::vector<std::byte> metadata;
  Endpoint::LookupExtra extra;
  ASSERT_TRUE(ep->LookupEx("host/tset", &metadata, &extra).ok());
  ASSERT_EQ(extra.handle, TestHandler::kHandle);
  MemManager mem(1 << 20);
  Status st;
  auto mirror = MetricSet::CreateMirror(mem, metadata, &st);
  ASSERT_TRUE(st.ok()) << st.ToString();

  const int resolves_before = handler.resolves.load();
  const std::uint64_t cpu_before = listener->stats().server_cpu_ns.load();
  enum class Want { kData, kUnchanged, kDelta, kNotFound, kInconsistent };
  int pulls = 0;
  // One results vector for every pull, as the daemon passes one per cycle: a
  // slot must not keep the last answer's data or flags.
  std::vector<Endpoint::BatchUpdateResult> results;
  auto pull = [&](const char* state, Want want, std::uint32_t handle) {
    SCOPED_TRACE(state);
    ++pulls;
    const std::uint64_t last_dgn = mirror->data_gn();
    std::vector<std::byte> expected;
    if (want == Want::kData) {
      expected.resize(set.data_size());
      ASSERT_TRUE(set.SnapshotData(expected).ok());
    } else if (want == Want::kDelta) {
      ByteWriter w(&expected);
      ASSERT_TRUE(set.SnapshotDelta(last_dgn, w).ok());
    }
    ep->UpdateBatch({{handle, last_dgn}}, &results);
    ASSERT_EQ(results.size(), 1u);
    const Endpoint::BatchUpdateResult& r = results[0];
    if (want == Want::kNotFound || want == Want::kInconsistent) {
      EXPECT_EQ(r.status.code(), want == Want::kNotFound
                                     ? ErrorCode::kNotFound
                                     : ErrorCode::kInconsistent);
      EXPECT_TRUE(r.data.empty());
      return;
    }
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.unchanged, want == Want::kUnchanged);
    EXPECT_EQ(r.delta, want == Want::kDelta);
    EXPECT_EQ(r.data, expected);
    if (!r.unchanged) {
      ASSERT_TRUE((r.delta ? mirror->ApplyDelta(r.data)
                           : mirror->ApplyData(r.data))
                      .ok());
    }
    EXPECT_EQ(mirror->data_gn(), set.data_gn());
    for (std::size_t m = 0; m < set.schema().metric_count(); ++m) {
      ASSERT_EQ(mirror->GetU64(m), set.GetU64(m)) << "metric " << m;
    }
  };

  // A set that never completed a transaction has no consistent chunk.
  pull("set never sampled", Want::kInconsistent, extra.handle);
  handler.Update(1);
  pull("mirror never pulled", Want::kData, extra.handle);
  pull("no change", Want::kUnchanged, extra.handle);
  handler.Touch(7, 2);
  pull("one sparse transaction", Want::kDelta, extra.handle);
  handler.Touch(8, 3);
  handler.Touch(9, 4);
  pull("two transactions since the last pull", Want::kData, extra.handle);
  ep->set_delta_updates(false);
  handler.Touch(10, 5);
  pull("one sparse transaction, deltas off", Want::kData, extra.handle);
  pull("unknown handle", Want::kNotFound, 0xbadbad);

  const int resolves = handler.resolves.load() - resolves_before;
  const std::uint64_t cpu = listener->stats().server_cpu_ns.load() - cpu_before;
  const std::string name = GetParam().name;
  if (name == "rdma" || name == "ugni") {
    EXPECT_EQ(resolves, 0) << "one-sided pull went through the handler";
    EXPECT_EQ(cpu, 0u) << "one-sided pull charged server CPU";
  } else {
    EXPECT_EQ(resolves, pulls);
    if (name == "local") {
      EXPECT_GT(cpu, 0u);
    }
  }
  EXPECT_GT(ep->stats().bytes_rx.load(), 0u);
}

// ---------------------------------------------------------------------------
// Batch update protocol: codecs and the sock client/server
// ---------------------------------------------------------------------------

TEST(BatchCodecTest, RequestRoundTrip) {
  UpdateBatchRequest in;
  in.entries = {{7, 100}, {9, 0}, {1234567, 0xdeadbeefull}};
  UpdateBatchRequest out;
  ASSERT_TRUE(DecodeUpdateBatchRequest(EncodeUpdateBatchRequest(in), &out));
  ASSERT_EQ(out.entries.size(), 3u);
  EXPECT_EQ(out.entries[0].handle, 7u);
  EXPECT_EQ(out.entries[0].last_dgn, 100u);
  EXPECT_EQ(out.entries[2].handle, 1234567u);
  EXPECT_EQ(out.entries[2].last_dgn, 0xdeadbeefull);
}

TEST(BatchCodecTest, ResponseRoundTripAllKinds) {
  UpdateBatchResponse in;
  in.code = 0;
  UpdateBatchResponse::Entry unchanged;
  unchanged.handle = 1;
  unchanged.kind = BatchEntryKind::kUnchanged;
  UpdateBatchResponse::Entry data;
  data.handle = 2;
  data.kind = BatchEntryKind::kData;
  data.data.assign(48, std::byte{0x5a});
  UpdateBatchResponse::Entry error;
  error.handle = 3;
  error.kind = BatchEntryKind::kError;
  error.code = static_cast<std::uint8_t>(ErrorCode::kNotFound);
  in.entries = {unchanged, data, error};
  UpdateBatchResponse out;
  ASSERT_TRUE(DecodeUpdateBatchResponse(EncodeUpdateBatchResponse(in), &out));
  ASSERT_EQ(out.entries.size(), 3u);
  EXPECT_EQ(out.entries[0].kind, BatchEntryKind::kUnchanged);
  EXPECT_EQ(out.entries[1].kind, BatchEntryKind::kData);
  EXPECT_EQ(out.entries[1].data, data.data);
  EXPECT_EQ(out.entries[2].kind, BatchEntryKind::kError);
  EXPECT_EQ(out.entries[2].code, static_cast<std::uint8_t>(ErrorCode::kNotFound));
}

TEST(BatchCodecTest, UnchangedMarkerIsExactlyFiveBytes) {
  UpdateBatchResponse one;
  one.entries.resize(1);
  one.entries[0].handle = 42;
  one.entries[0].kind = BatchEntryKind::kUnchanged;
  // u8 code + u32 count + (u32 handle + u8 kind)
  EXPECT_EQ(EncodeUpdateBatchResponse(one).size(), 1u + 4u + 5u);
}

TEST(BatchCodecTest, TruncatedRequestRejected) {
  UpdateBatchRequest in;
  in.entries = {{1, 10}, {2, 20}};
  auto bytes = EncodeUpdateBatchRequest(in);
  bytes.resize(bytes.size() - 3);  // cut into the last entry
  UpdateBatchRequest out;
  EXPECT_FALSE(DecodeUpdateBatchRequest(bytes, &out));
}

TEST(BatchCodecTest, DuplicateHandlesRejected) {
  UpdateBatchRequest in;
  in.entries = {{5, 10}, {6, 20}, {5, 30}};
  UpdateBatchRequest out;
  EXPECT_FALSE(DecodeUpdateBatchRequest(EncodeUpdateBatchRequest(in), &out));
}

TEST(BatchCodecTest, OversizedCountRejected) {
  // A count field claiming far more entries than the payload could hold must
  // be rejected before any allocation sized from it.
  ByteWriter w;
  w.U32(0x10000000u);
  w.U32(1);
  w.U64(1);
  UpdateBatchRequest req_out;
  EXPECT_FALSE(DecodeUpdateBatchRequest(w.buffer(), &req_out));

  ByteWriter rw;
  rw.U8(0);
  rw.U32(0x10000000u);
  UpdateBatchResponse resp_out;
  EXPECT_FALSE(DecodeUpdateBatchResponse(rw.buffer(), &resp_out));
}

TEST(BatchCodecTest, TruncatedDataEntryRejected) {
  UpdateBatchResponse in;
  in.entries.resize(1);
  in.entries[0].handle = 1;
  in.entries[0].kind = BatchEntryKind::kData;
  in.entries[0].data.assign(64, std::byte{1});
  auto bytes = EncodeUpdateBatchResponse(in);
  bytes.resize(bytes.size() - 32);  // chunk shorter than its length prefix
  UpdateBatchResponse out;
  EXPECT_FALSE(DecodeUpdateBatchResponse(bytes, &out));
}

TEST(BatchCodecTest, UnknownEntryKindRejected) {
  ByteWriter w;
  w.U8(0);   // top-level code
  w.U32(1);  // one entry
  w.U32(9);  // handle
  w.U8(77);  // bogus kind
  UpdateBatchResponse out;
  EXPECT_FALSE(DecodeUpdateBatchResponse(w.buffer(), &out));
}

TEST(BatchCodecTest, LookupResponseHandleIsMandatory) {
  LookupResponse in;
  in.metadata.assign(16, std::byte{3});
  in.handle = 99;
  auto bytes = EncodeLookupResponse(in);
  LookupResponse out;
  ASSERT_TRUE(DecodeLookupResponse(bytes, &out));
  EXPECT_EQ(out.handle, 99u);
  // A response that stops after the metadata is malformed, not a
  // handle-less peer.
  bytes.resize(bytes.size() - 4);
  EXPECT_FALSE(DecodeLookupResponse(bytes, &out));
}

TEST(BatchCodecTest, ModeledSizesMatchEncoders) {
  // local charges these sizes instead of encoding the frames; they must be
  // what sock puts on the wire.
  LookupResponse lookup;
  lookup.metadata.assign(37, std::byte{1});
  EXPECT_EQ(LookupResponseSize(37), EncodeLookupResponse(lookup).size());
  UpdateBatchRequest req;
  req.entries = {{1, 10}, {2, 20}, {3, 30}};
  EXPECT_EQ(UpdateBatchRequestSize(3), EncodeUpdateBatchRequest(req).size());
  UpdateBatchResponse resp;
  resp.entries.resize(4);
  resp.entries[0].kind = BatchEntryKind::kUnchanged;
  resp.entries[1].kind = BatchEntryKind::kError;
  resp.entries[2].kind = BatchEntryKind::kData;
  resp.entries[2].data.assign(48, std::byte{2});
  resp.entries[3].kind = BatchEntryKind::kDelta;
  resp.entries[3].data.assign(21, std::byte{3});
  std::size_t modeled = UpdateBatchResponseHeaderSize();
  for (const auto& e : resp.entries) {
    modeled += BatchEntrySize(e.kind, e.data.size());
  }
  EXPECT_EQ(modeled, EncodeUpdateBatchResponse(resp).size());
  EXPECT_EQ(BatchEntrySize(BatchEntryKind::kUnchanged, 0), 5u);
  EXPECT_EQ(BatchEntrySize(BatchEntryKind::kError, 0), 6u);
  EXPECT_EQ(BatchEntrySize(BatchEntryKind::kData, 48), 9u + 48u);

  // Query replies: empty, error, truncated and multi-column.
  QueryResponse empty;
  EXPECT_EQ(QueryResponseSize(empty), EncodeQueryResponse(empty).size());
  QueryResponse error;
  error.code = static_cast<std::uint8_t>(ErrorCode::kNotFound);
  error.error = "query: no such table 'netdev'";
  EXPECT_EQ(QueryResponseSize(error), EncodeQueryResponse(error).size());
  QueryResponse rows;
  rows.result.columns = {"active", "free", "load1"};
  for (std::uint64_t i = 0; i < 5; ++i) {
    rows.result.rows.push_back({i * kNsPerSec, i, {1.0 * i, 2.0, 0.5}});
  }
  rows.total_rows = 5;
  rows.result.segments_read = 2;
  EXPECT_EQ(QueryResponseSize(rows), EncodeQueryResponse(rows).size());
  QueryResponse truncated = rows;
  truncated.result.rows.resize(2);
  truncated.truncated = 1;
  EXPECT_EQ(QueryResponseSize(truncated),
            EncodeQueryResponse(truncated).size());
  EXPECT_LT(QueryResponseSize(truncated), QueryResponseSize(rows));
}

TEST(BatchProtocolTest, SockBatchDataUnchangedAndUnknownHandle) {
  auto transport = TransportRegistry::Default().Get("sock");
  TestHandler handler;
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(transport->Listen("127.0.0.1:0", &handler, &listener).ok());
  std::unique_ptr<Endpoint> ep;
  ASSERT_TRUE(transport->Connect(listener->address(), &ep).ok());

  std::vector<std::byte> metadata;
  Endpoint::LookupExtra extra;
  ASSERT_TRUE(ep->LookupEx("host/tset", &metadata, &extra).ok());
  EXPECT_EQ(extra.handle, TestHandler::kHandle);

  handler.Update(5);
  const std::uint64_t live_gn = handler.set_->data_gn();

  // Entry 0 is stale (gets data), entry 1 is a handle the server never
  // issued (per-entry kNotFound).
  std::vector<Endpoint::BatchUpdateResult> results;
  ep->UpdateBatch({{TestHandler::kHandle, 0}, {0xbadbad, 0}}, &results);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_FALSE(results[0].unchanged);
  EXPECT_EQ(results[0].data.size(), handler.set_->data_size());
  EXPECT_EQ(results[1].status.code(), ErrorCode::kNotFound);

  // Current: the unchanged marker.
  ep->UpdateBatch({{TestHandler::kHandle, live_gn}}, &results);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_TRUE(results[0].unchanged);
  EXPECT_TRUE(results[0].data.empty());

  EXPECT_EQ(ep->stats().update_batches.load(), 2u);
  EXPECT_EQ(ep->stats().updates_unchanged.load(), 1u);
  EXPECT_EQ(listener->stats().updates_unchanged.load(), 1u);
}

TEST(BatchProtocolTest, RepeatedHandleInOneBatchFailsOnlyTheRepeat) {
  // The response is keyed by handle, so a handle rides once per frame: the
  // repeat fails alone, and the first occurrence is served.
  auto transport = TransportRegistry::Default().Get("sock");
  TestHandler handler;
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(transport->Listen("127.0.0.1:0", &handler, &listener).ok());
  std::unique_ptr<Endpoint> ep;
  ASSERT_TRUE(transport->Connect(listener->address(), &ep).ok());
  std::vector<std::byte> metadata;
  Endpoint::LookupExtra extra;
  ASSERT_TRUE(ep->LookupEx("host/tset", &metadata, &extra).ok());

  handler.Update(6);
  std::vector<Endpoint::BatchUpdateResult> results;
  ep->UpdateBatch({{TestHandler::kHandle, 0}, {TestHandler::kHandle, 0}},
                  &results);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_FALSE(results[0].data.empty());
  EXPECT_EQ(results[1].status.code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(results[1].data.empty());
  EXPECT_EQ(ep->stats().update_batches.load(), 1u);
}

TEST(BatchProtocolTest, MalformedBatchFrameGetsErrorResponse) {
  // Hand-feed the server a kUpdateBatchReq whose payload is garbage and
  // check it answers with a top-level error instead of dropping the
  // connection or crashing.
  auto transport = TransportRegistry::Default().Get("sock");
  TestHandler handler;
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(transport->Listen("127.0.0.1:0", &handler, &listener).ok());

  // Raw TCP client so we can put exact bytes on the wire.
  const std::string addr = listener->address();
  const auto colon = addr.rfind(':');
  ASSERT_NE(colon, std::string::npos);
  const int port = std::stoi(addr.substr(colon + 1));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);

  // Duplicate handles are rejected by the server-side decoder.
  ByteWriter payload;
  payload.U32(2);
  payload.U32(5);
  payload.U64(0);
  payload.U32(5);
  payload.U64(0);
  auto frame = EncodeFrame(MsgType::kUpdateBatchReq, 1, payload.buffer());
  ASSERT_EQ(::write(fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));

  auto read_exact = [&](void* dst, std::size_t n) {
    auto* p = static_cast<char*>(dst);
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::read(fd, p + got, n - got);
      if (r <= 0) return false;
      got += static_cast<std::size_t>(r);
    }
    return true;
  };
  std::byte hdr_bytes[kFrameHeaderSize];
  ASSERT_TRUE(read_exact(hdr_bytes, sizeof(hdr_bytes)));
  const FrameHeader hdr = DecodeFrameHeader(hdr_bytes);
  EXPECT_EQ(hdr.type, MsgType::kUpdateBatchResp);
  EXPECT_EQ(hdr.request_id, 1u);
  std::vector<std::byte> resp_payload(hdr.payload_len);
  ASSERT_TRUE(read_exact(resp_payload.data(), resp_payload.size()));
  UpdateBatchResponse resp;
  ASSERT_TRUE(DecodeUpdateBatchResponse(resp_payload, &resp));
  EXPECT_EQ(resp.code, static_cast<std::uint8_t>(ErrorCode::kInvalidArgument));
  EXPECT_TRUE(resp.entries.empty());

  // The connection survives the bad frame: a well-formed request still works.
  auto dir_frame = EncodeFrame(MsgType::kDirReq, 2, {});
  ASSERT_EQ(::write(fd, dir_frame.data(), dir_frame.size()),
            static_cast<ssize_t>(dir_frame.size()));
  ASSERT_TRUE(read_exact(hdr_bytes, sizeof(hdr_bytes)));
  EXPECT_EQ(DecodeFrameHeader(hdr_bytes).type, MsgType::kDirResp);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Wire codec hardening: ByteWriter sticky errors, ByteReader overflow
// ---------------------------------------------------------------------------

TEST(WireHardeningTest, OversizedStrRejectedWithoutDesync) {
  ByteWriter w;
  w.U32(7);
  const std::size_t before = w.size();
  w.Str(std::string(0x10000, 'x'));  // one past the u16 prefix's range
  EXPECT_FALSE(w.ok());
  EXPECT_EQ(w.size(), before) << "a rejected string must append nothing";
  // The flag is sticky: later successful writes don't clear it.
  w.U32(8);
  EXPECT_FALSE(w.ok());
  // A maximum-length string is still representable.
  ByteWriter w2;
  w2.Str(std::string(0xffff, 'y'));
  EXPECT_TRUE(w2.ok());
  EXPECT_EQ(w2.size(), 2u + 0xffffu);
}

TEST(WireHardeningTest, PatchU32BoundsChecked) {
  ByteWriter w;
  w.PatchU32(0, 1);  // empty buffer: no 4-byte window exists
  EXPECT_FALSE(w.ok());
  ByteWriter w2;
  w2.U32(0);
  w2.PatchU32(1, 5);  // window [1,5) overhangs the 4-byte buffer
  EXPECT_FALSE(w2.ok());
  ByteWriter w3;
  w3.U32(0);
  w3.U32(9);
  w3.PatchU32(0, 0xdeadbeef);
  EXPECT_TRUE(w3.ok());
  std::uint32_t patched = 0;
  std::memcpy(&patched, w3.buffer().data(), 4);
  EXPECT_EQ(patched, 0xdeadbeefu);
}

TEST(WireHardeningTest, MutableSpanBoundsChecked) {
  ByteWriter w;
  const std::size_t off = w.Extend(8);
  EXPECT_TRUE(w.MutableSpan(off, 8).size() == 8);
  EXPECT_TRUE(w.ok());
  EXPECT_TRUE(w.MutableSpan(4, 8).empty());  // overhangs the end
  EXPECT_FALSE(w.ok());
  ByteWriter w2;
  w2.Extend(8);
  EXPECT_TRUE(w2.MutableSpan(0, 16).empty());  // longer than the buffer
  EXPECT_FALSE(w2.ok());
}

TEST(WireHardeningTest, ReaderEnsureDoesNotWrapOnHugeLengths) {
  // A length near SIZE_MAX would make `pos + n` wrap to a small value and
  // pass a naive bounds check; the reader must still refuse.
  const std::byte bytes[4] = {};
  ByteReader r(bytes);
  r.U32();
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.View(SIZE_MAX - 2).empty());
  EXPECT_FALSE(r.ok());

  // The same property via a wire-carried u32 length prefix.
  ByteWriter w;
  w.U32(0xffffffffu);
  ByteReader r2(w.buffer());
  EXPECT_TRUE(r2.Bytes().empty());
  EXPECT_FALSE(r2.ok());
}

// ---------------------------------------------------------------------------
// Delta entries: codec validation and end-to-end sock round trip
// ---------------------------------------------------------------------------

// Hand-built delta payload: header {mgn, base, new, ts_sec, ts_usec, count}
// + extent table + value bytes. Structural validity only — MGN/base checks
// happen at ApplyDelta.
std::vector<std::byte> ValidDeltaPayload() {
  ByteWriter p;
  p.U32(0x1234);  // meta_gn (opaque to the codec)
  p.U64(5);       // base_dgn
  p.U64(6);       // new_dgn
  p.U32(1);       // ts_sec
  p.U32(2);       // ts_usec
  p.U16(1);       // extent count
  p.U32(0);       // extent offset
  p.U32(8);       // extent len
  p.U64(0xabcdef);
  return p.Take();
}

std::vector<std::byte> WrapDeltaEntry(std::span<const std::byte> payload) {
  ByteWriter w;
  w.U8(0);   // top-level code
  w.U32(1);  // one entry
  w.U32(7);  // handle
  w.U8(3);   // kind = kDelta
  w.Bytes(payload);
  return w.Take();
}

TEST(BatchCodecTest, DeltaEntryRoundTrip) {
  const auto payload = ValidDeltaPayload();
  UpdateBatchResponse out;
  ASSERT_TRUE(DecodeUpdateBatchResponse(WrapDeltaEntry(payload), &out));
  ASSERT_EQ(out.entries.size(), 1u);
  EXPECT_EQ(out.entries[0].kind, BatchEntryKind::kDelta);
  EXPECT_EQ(out.entries[0].handle, 7u);
  EXPECT_EQ(out.entries[0].data, payload);
}

TEST(BatchCodecTest, MalformedDeltaEntriesRejected) {
  // Truncated value run: the table promises 8 value bytes, the payload
  // carries 6.
  {
    auto payload = ValidDeltaPayload();
    payload.resize(payload.size() - 2);
    UpdateBatchResponse out;
    EXPECT_FALSE(DecodeUpdateBatchResponse(WrapDeltaEntry(payload), &out));
  }
  // Trailing garbage after the promised value bytes.
  {
    auto payload = ValidDeltaPayload();
    payload.push_back(std::byte{0});
    UpdateBatchResponse out;
    EXPECT_FALSE(DecodeUpdateBatchResponse(WrapDeltaEntry(payload), &out));
  }
  // Overlapping extents: (0,8) then (4,8).
  {
    ByteWriter p;
    p.U32(0x1234);
    p.U64(5);
    p.U64(6);
    p.U32(1);
    p.U32(2);
    p.U16(2);
    p.U32(0);
    p.U32(8);
    p.U32(4);
    p.U32(8);
    p.Extend(16);
    UpdateBatchResponse out;
    EXPECT_FALSE(DecodeUpdateBatchResponse(WrapDeltaEntry(p.buffer()), &out));
  }
  // Zero-length extent.
  {
    ByteWriter p;
    p.U32(0x1234);
    p.U64(5);
    p.U64(6);
    p.U32(1);
    p.U32(2);
    p.U16(1);
    p.U32(0);
    p.U32(0);
    UpdateBatchResponse out;
    EXPECT_FALSE(DecodeUpdateBatchResponse(WrapDeltaEntry(p.buffer()), &out));
  }
  // Extent count far larger than the payload could hold: must be rejected
  // before any table walk sized from it.
  {
    ByteWriter p;
    p.U32(0x1234);
    p.U64(5);
    p.U64(6);
    p.U32(1);
    p.U32(2);
    p.U16(0xffff);
    UpdateBatchResponse out;
    EXPECT_FALSE(DecodeUpdateBatchResponse(WrapDeltaEntry(p.buffer()), &out));
  }
  // Non-advancing generation (new_dgn <= base_dgn).
  {
    ByteWriter p;
    p.U32(0x1234);
    p.U64(6);
    p.U64(6);
    p.U32(1);
    p.U32(2);
    p.U16(0);
    UpdateBatchResponse out;
    EXPECT_FALSE(DecodeUpdateBatchResponse(WrapDeltaEntry(p.buffer()), &out));
  }
  // Truncated header (cut inside the timestamp).
  {
    auto payload = ValidDeltaPayload();
    payload.resize(20);
    UpdateBatchResponse out;
    EXPECT_FALSE(DecodeUpdateBatchResponse(WrapDeltaEntry(payload), &out));
  }
}

TEST(BatchCodecTest, RequestRevisionByteIsMandatory) {
  EXPECT_EQ(kBatchRevisionDelta, 2);
  EXPECT_EQ(kBatchRevisionFull, 1);
  UpdateBatchRequest in;
  in.entries = {{7, 100}};
  for (const bool delta : {true, false}) {
    in.accept_delta = delta;
    auto bytes = EncodeUpdateBatchRequest(in);
    // The trailing byte keeps its wire values: 2 accepts deltas, 1 does not.
    EXPECT_EQ(bytes.back(), std::byte{delta ? kBatchRevisionDelta
                                            : kBatchRevisionFull});
    UpdateBatchRequest out;
    ASSERT_TRUE(DecodeUpdateBatchRequest(bytes, &out));
    EXPECT_EQ(out.accept_delta, delta);
    ASSERT_EQ(out.entries.size(), 1u);
    EXPECT_EQ(out.entries[0].handle, 7u);
    // Without the revision byte, or with one no client sends, the request is
    // malformed.
    bytes.back() = std::byte{3};
    EXPECT_FALSE(DecodeUpdateBatchRequest(bytes, &out));
    bytes.pop_back();
    EXPECT_FALSE(DecodeUpdateBatchRequest(bytes, &out));
  }
}

// A server over a 32-metric set: wide enough that a sparse change produces
// a delta comfortably smaller than the full chunk.
class WideHandler : public ServiceHandler {
 public:
  WideHandler() : mem_(1 << 20) {
    Schema schema("wide");
    for (int i = 0; i < 32; ++i) {
      schema.AddMetric("m" + std::to_string(i), MetricType::kU64);
    }
    Status st;
    set_ = MetricSet::Create(mem_, schema, "host/wide", "host", 1, &st);
    FullSample(1);
  }

  void FullSample(std::uint64_t v) {
    set_->BeginTransaction();
    for (std::size_t i = 0; i < 32; ++i) set_->SetU64(i, v);
    set_->EndTransaction(v * kNsPerSec);
  }

  void Touch(std::size_t idx, std::uint64_t v) {
    set_->BeginTransaction();
    set_->SetU64(idx, v);
    set_->EndTransaction(v * kNsPerSec);
  }

  std::vector<std::string> HandleDir() override { return {"host/wide"}; }
  Status HandleLookup(const std::string& instance,
                      std::vector<std::byte>* metadata) override {
    if (instance != "host/wide") return {ErrorCode::kNotFound, instance};
    auto bytes = set_->metadata_bytes();
    metadata->assign(bytes.begin(), bytes.end());
    return Status::Ok();
  }
  void HandleAdvertise(const AdvertiseMsg&) override {}
  std::uint32_t HandleAssignHandle(const std::string& instance) override {
    return instance == "host/wide" ? kHandle : kInvalidSetHandle;
  }
  MetricSetPtr HandleResolveHandle(std::uint32_t handle) override {
    return handle == kHandle ? set_ : nullptr;
  }
  static constexpr std::uint32_t kHandle = 23;

  MemManager mem_;
  MetricSetPtr set_;
};

TEST(BatchProtocolTest, SockDeltaRoundTripAndFullChunkFallback) {
  auto transport = TransportRegistry::Default().Get("sock");
  WideHandler handler;
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(transport->Listen("127.0.0.1:0", &handler, &listener).ok());
  std::unique_ptr<Endpoint> ep;
  ASSERT_TRUE(transport->Connect(listener->address(), &ep).ok());

  std::vector<std::byte> metadata;
  Endpoint::LookupExtra extra;
  ASSERT_TRUE(ep->LookupEx("host/wide", &metadata, &extra).ok());
  ASSERT_EQ(extra.handle, WideHandler::kHandle);

  MemManager mem(1 << 20);
  Status st;
  auto mirror = MetricSet::CreateMirror(mem, metadata, &st);
  ASSERT_TRUE(st.ok()) << st.ToString();

  // First pull: every metric changed in the base sample, so the delta would
  // be no smaller than the chunk — the server must fall back to kData.
  std::vector<Endpoint::BatchUpdateResult> results;
  ep->UpdateBatch({{WideHandler::kHandle, 0}}, &results);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_FALSE(results[0].delta);
  ASSERT_EQ(results[0].data.size(), handler.set_->data_size());
  ASSERT_TRUE(mirror->ApplyData(results[0].data).ok());

  // Sparse change: one metric out of 32. The pull must come back as a delta
  // far smaller than the chunk and decode straight into the mirror.
  handler.Touch(3, 42);
  ep->UpdateBatch({{WideHandler::kHandle, mirror->data_gn()}},
                  &results);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_TRUE(results[0].delta);
  EXPECT_LT(results[0].data.size(), handler.set_->data_size() / 4);
  ASSERT_TRUE(mirror->ApplyDelta(results[0].data).ok());
  EXPECT_EQ(mirror->GetU64(3), 42u);
  EXPECT_EQ(mirror->GetU64(0), 1u);
  EXPECT_EQ(mirror->data_gn(), handler.set_->data_gn());
  EXPECT_GE(ep->stats().updates_delta.load(), 1u);

  // Knob off: the client's revision byte refuses deltas, so the same sparse
  // change arrives as a full chunk on the next pull.
  ep->set_delta_updates(false);
  handler.Touch(4, 43);
  ep->UpdateBatch({{WideHandler::kHandle, mirror->data_gn()}},
                  &results);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_FALSE(results[0].delta);
  ASSERT_EQ(results[0].data.size(), handler.set_->data_size());
  ASSERT_TRUE(mirror->ApplyData(results[0].data).ok());
  EXPECT_EQ(mirror->GetU64(4), 43u);
}

TEST(BatchProtocolTest, StaleMirrorDeltaRejectedThenFullChunkRecovers) {
  // A mirror that missed a cycle (DGN gap) must reject the server's delta
  // for a later base and recover via the full chunk on the next pull.
  auto transport = TransportRegistry::Default().Get("sock");
  WideHandler handler;
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(transport->Listen("127.0.0.1:0", &handler, &listener).ok());
  std::unique_ptr<Endpoint> ep;
  ASSERT_TRUE(transport->Connect(listener->address(), &ep).ok());
  std::vector<std::byte> metadata;
  Endpoint::LookupExtra extra;
  ASSERT_TRUE(ep->LookupEx("host/wide", &metadata, &extra).ok());
  MemManager mem(1 << 20);
  Status st;
  auto mirror = MetricSet::CreateMirror(mem, metadata, &st);
  ASSERT_TRUE(st.ok());

  std::vector<Endpoint::BatchUpdateResult> results;
  ep->UpdateBatch({{WideHandler::kHandle, 0}}, &results);
  ASSERT_TRUE(results[0].status.ok());
  ASSERT_TRUE(mirror->ApplyData(results[0].data).ok());
  const std::uint64_t held = mirror->data_gn();

  // Two transactions while the mirror sleeps: the server only remembers a
  // delta for the *latest* transition, so a pull anchored two behind must
  // come back as a full chunk (no delta chains across gaps).
  handler.Touch(5, 50);
  handler.Touch(6, 60);
  ep->UpdateBatch({{WideHandler::kHandle, held}}, &results);
  ASSERT_TRUE(results[0].status.ok());
  EXPECT_FALSE(results[0].delta);
  ASSERT_EQ(results[0].data.size(), handler.set_->data_size());
  ASSERT_TRUE(mirror->ApplyData(results[0].data).ok());
  EXPECT_EQ(mirror->GetU64(5), 50u);
  EXPECT_EQ(mirror->GetU64(6), 60u);
  EXPECT_EQ(mirror->data_gn(), handler.set_->data_gn());

  // A delta pulled for the current transition must still be refused by a
  // mirror that never caught up (base mismatch), leaving it untouched.
  handler.Touch(7, 70);
  ep->UpdateBatch({{WideHandler::kHandle, mirror->data_gn()}},
                  &results);
  ASSERT_TRUE(results[0].status.ok());
  ASSERT_TRUE(results[0].delta);
  auto stale = MetricSet::CreateMirror(mem, metadata, &st);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(stale->ApplyDelta(results[0].data).code(),
            ErrorCode::kInconsistent);
  EXPECT_EQ(stale->data_gn(), 0u);
  // The in-sync mirror applies the same payload fine.
  ASSERT_TRUE(mirror->ApplyDelta(results[0].data).ok());
  EXPECT_EQ(mirror->GetU64(7), 70u);
}

TEST(SockTransportTest, MalformedDeltaFromPeerFailsEntryNotConnection) {
  // A hostile server answers a batch pull with a structurally invalid delta
  // payload. The client must fail that batch cleanly (decode rejects the
  // frame) and keep the connection usable.
  RawPeer peer([](int fd) {
    FrameHeader hdr;
    std::vector<std::byte> payload;
    // Frame 1: LookupEx. Answer with junk metadata and a handle.
    if (!ReadFrame(fd, &hdr, &payload)) return;
    LookupResponse lr;
    lr.code = 0;
    lr.metadata.assign(16, std::byte{9});
    lr.handle = 7;
    auto f1 = EncodeFrame(MsgType::kLookupResp, hdr.request_id,
                          EncodeLookupResponse(lr));
    WriteAllFd(fd, f1.data(), f1.size());
    // Frame 2: the batch request. Answer with an overlapping-extent delta.
    if (!ReadFrame(fd, &hdr, &payload)) return;
    ByteWriter p;
    p.U32(0x1234);
    p.U64(0);
    p.U64(1);
    p.U32(1);
    p.U32(2);
    p.U16(2);
    p.U32(0);
    p.U32(8);
    p.U32(4);  // overlaps the previous extent
    p.U32(8);
    p.Extend(16);
    ByteWriter resp;
    resp.U8(0);
    resp.U32(1);
    resp.U32(7);
    resp.U8(3);
    resp.Bytes(p.buffer());
    auto f2 = EncodeFrame(MsgType::kUpdateBatchResp, hdr.request_id,
                          resp.buffer());
    WriteAllFd(fd, f2.data(), f2.size());
    // Frame 3: the survival probe (Dir).
    if (!ReadFrame(fd, &hdr, &payload)) return;
    DirResponse dr;
    dr.code = 0;
    dr.instances = {"a/b"};
    auto f3 = EncodeFrame(MsgType::kDirResp, hdr.request_id,
                          EncodeDirResponse(dr));
    WriteAllFd(fd, f3.data(), f3.size());
  });

  SockTransport sock;
  std::unique_ptr<Endpoint> ep;
  ASSERT_TRUE(sock.Connect(peer.address(), &ep).ok());
  std::vector<std::byte> metadata;
  Endpoint::LookupExtra extra;
  ASSERT_TRUE(ep->LookupEx("host/x", &metadata, &extra).ok());
  ASSERT_EQ(extra.handle, 7u);

  std::vector<Endpoint::BatchUpdateResult> results;
  ep->UpdateBatch({{7, 0}}, &results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), ErrorCode::kInternal)
      << results[0].status.ToString();
  EXPECT_FALSE(results[0].delta);
  EXPECT_TRUE(results[0].data.empty());

  // The connection survives: a well-formed request still round-trips.
  EXPECT_TRUE(ep->connected());
  std::vector<std::string> instances;
  EXPECT_TRUE(ep->Dir(&instances).ok());
  EXPECT_EQ(instances, std::vector<std::string>{"a/b"});
}

TEST(TransportRegistryTest, DefaultHasAllFour) {
  auto& registry = TransportRegistry::Default();
  for (const char* name : {"local", "sock", "rdma", "ugni"}) {
    EXPECT_NE(registry.Get(name), nullptr) << name;
  }
  EXPECT_EQ(registry.Get("mystery"), nullptr);
}

}  // namespace
}  // namespace ldmsxx
