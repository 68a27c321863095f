#include "transport/sock_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace ldmsxx {
namespace {

std::uint64_t NowSteadyNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Parse "host:port". For listeners, "*" (and an empty host) bind all
/// interfaces; for connects they mean loopback. "localhost" is loopback on
/// both sides.
Status ParseAddress(const std::string& address, bool for_listen,
                    sockaddr_in* out) {
  const auto colon = address.rfind(':');
  if (colon == std::string::npos) {
    return {ErrorCode::kInvalidArgument, "address must be host:port"};
  }
  std::string host = address.substr(0, colon);
  const auto port = ParseU64(address.substr(colon + 1));
  if (!port || *port > 65535) {
    return {ErrorCode::kInvalidArgument, "bad port in " + address};
  }
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<std::uint16_t>(*port));
  if (host.empty() || host == "*") {
    if (for_listen) {
      out->sin_addr.s_addr = htonl(INADDR_ANY);
      return Status::Ok();
    }
    host = "127.0.0.1";
  } else if (host == "localhost") {
    host = "127.0.0.1";
  }
  if (inet_pton(AF_INET, host.c_str(), &out->sin_addr) != 1) {
    return {ErrorCode::kInvalidArgument, "bad host in " + address};
  }
  return Status::Ok();
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Deadline-poll granularity. Bounds how late a request timeout fires and
/// how quickly a closing endpoint's reader thread notices.
constexpr int kPollSliceMs = 20;

/// Compact a receive buffer only once this many consumed bytes accumulate,
/// so draining N buffered frames costs one memmove, not N.
constexpr std::size_t kCompactBytes = 256 << 10;

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

class SockListener final : public Listener {
 public:
  SockListener() = default;

  ~SockListener() override {
    Stop();
  }

  Status Start(const std::string& address, ServiceHandler* handler) {
    handler_ = handler;
    sockaddr_in addr{};
    Status st = ParseAddress(address, /*for_listen=*/true, &addr);
    if (!st.ok()) return st;

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return {ErrorCode::kInternal, std::strerror(errno)};
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      return {ErrorCode::kInvalidArgument,
              "bind " + address + ": " + std::strerror(errno)};
    }
    if (::listen(listen_fd_, 1024) < 0) {
      return {ErrorCode::kInternal, std::strerror(errno)};
    }
    sockaddr_in actual{};
    socklen_t alen = sizeof actual;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&actual), &alen);
    char host[INET_ADDRSTRLEN];
    inet_ntop(AF_INET, &actual.sin_addr, host, sizeof host);
    address_ = std::string(host) + ":" + std::to_string(ntohs(actual.sin_port));

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epoll_fd_ < 0 || wake_fd_ < 0) {
      return {ErrorCode::kInternal, "epoll/eventfd failed"};
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
    ev.data.fd = wake_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

    reactor_ = std::thread([this] { ReactorLoop(); });
    return Status::Ok();
  }

  std::string address() const override { return address_; }

 private:
  struct Conn {
    std::vector<std::byte> rbuf;
    /// Bytes of rbuf already consumed as complete frames; rbuf is compacted
    /// lazily (see kCompactBytes) instead of front-erased every batch.
    std::size_t roff = 0;
    /// Outgoing frames, encoded in place back-to-back. woff marks the bytes
    /// already sent; like rbuf, the buffer is cleared when drained and
    /// compacted lazily, so steady state reuses its capacity.
    std::vector<std::byte> wbuf;
    std::size_t woff = 0;
  };

  void Stop() {
    if (reactor_.joinable()) {
      stop_ = true;
      const std::uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
      reactor_.join();
    }
    for (auto& [fd, conn] : conns_) ::close(fd);
    conns_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  }

  void ReactorLoop() {
    constexpr int kMaxEvents = 128;
    epoll_event events[kMaxEvents];
    while (!stop_) {
      const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, 500);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n && !stop_; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wake_fd_) {
          std::uint64_t junk;
          [[maybe_unused]] ssize_t r = ::read(wake_fd_, &junk, sizeof junk);
          continue;
        }
        if (fd == listen_fd_) {
          AcceptAll();
          continue;
        }
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          CloseConn(fd);
          continue;
        }
        if (events[i].events & EPOLLIN) {
          if (!ReadConn(fd)) continue;  // closed
        }
        if (events[i].events & EPOLLOUT) FlushConn(fd);
      }
    }
  }

  void AcceptAll() {
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN or error: stop accepting this round
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      SetNonBlocking(fd);
      conns_.emplace(fd, Conn{});
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    }
  }

  void CloseConn(int fd) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(fd);
  }

  /// Returns false if the connection was closed.
  bool ReadConn(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return false;
    Conn& conn = it->second;
    std::byte chunk[16384];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n > 0) {
        conn.rbuf.insert(conn.rbuf.end(), chunk, chunk + n);
        stats_.bytes_rx.fetch_add(static_cast<std::uint64_t>(n),
                                  std::memory_order_relaxed);
        continue;
      }
      if (n == 0) {
        CloseConn(fd);
        return false;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConn(fd);
      return false;
    }
    // Extract complete frames from the consumed offset onward.
    while (conn.rbuf.size() - conn.roff >= kFrameHeaderSize) {
      const FrameHeader hdr = DecodeFrameHeader(
          std::span<const std::byte>(conn.rbuf).subspan(conn.roff));
      if (hdr.payload_len > kMaxFramePayload) {
        CloseConn(fd);  // corrupt or hostile peer
        return false;
      }
      const std::size_t total = kFrameHeaderSize + hdr.payload_len;
      if (conn.rbuf.size() - conn.roff < total) break;
      HandleFrame(fd, conn, hdr,
                  std::span<const std::byte>(conn.rbuf)
                      .subspan(conn.roff + kFrameHeaderSize, hdr.payload_len));
      conn.roff += total;
      // HandleFrame may have closed fd (not currently, but be safe).
      if (conns_.find(fd) == conns_.end()) return false;
    }
    // Amortized compaction: free the whole buffer when it is fully drained
    // (the common case), memmove only once kCompactBytes have accumulated.
    if (conn.roff == conn.rbuf.size()) {
      conn.rbuf.clear();
      conn.roff = 0;
    } else if (conn.roff >= kCompactBytes) {
      conn.rbuf.erase(
          conn.rbuf.begin(),
          conn.rbuf.begin() + static_cast<std::ptrdiff_t>(conn.roff));
      conn.roff = 0;
    }
    return true;
  }

  // Responses are encoded straight into conn.wbuf by the message module's
  // writers (header first, payload appended in place, length back-patched)
  // — no per-response vector, and batch data chunks are snapshotted
  // directly into the frame.
  void HandleFrame(int fd, Conn& conn, const FrameHeader& hdr,
                   std::span<const std::byte> payload) {
    const std::uint64_t t0 = NowSteadyNs();
    const std::size_t frame_start = conn.wbuf.size();
    ByteWriter out(&conn.wbuf);
    MsgType resp_type = MsgType::kDirResp;
    switch (hdr.type) {
      case MsgType::kDirReq:
        resp_type = MsgType::kDirResp;
        BeginFrame(out, resp_type, hdr.request_id);
        WriteDirResponse(out, {0, handler_->HandleDir()});
        break;
      case MsgType::kLookupReq: {
        resp_type = MsgType::kLookupResp;
        BeginFrame(out, resp_type, hdr.request_id);
        WriteLookupResponse(out, AnswerLookup(payload));
        stats_.lookups.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case MsgType::kUpdateBatchReq: {
        resp_type = MsgType::kUpdateBatchResp;
        BeginFrame(out, resp_type, hdr.request_id);
        UpdateBatchRequest req;
        if (!DecodeUpdateBatchRequest(payload, &req)) {
          // Whole-request failure: no entries.
          WriteUpdateBatchResponseHeader(
              out, static_cast<std::uint8_t>(ErrorCode::kInvalidArgument), 0);
          break;
        }
        stats_.update_batches.fetch_add(1, std::memory_order_relaxed);
        stats_.updates.fetch_add(req.entries.size(),
                                 std::memory_order_relaxed);
        WriteUpdateBatchResponseHeader(out, 0, req.entries.size());
        for (const auto& e : req.entries) {
          const std::size_t entry = BeginBatchEntry(out, e.handle);
          const MetricSetPtr set = handler_->HandleResolveHandle(e.handle);
          const ServedEntry served =
              ServeBatchEntry(set.get(), e.last_dgn, req.accept_delta, out);
          EndBatchEntry(out, entry, served.kind,
                        static_cast<std::uint8_t>(served.error));
          served.CountInto(&stats_);
        }
        break;
      }
      case MsgType::kQueryReq: {
        resp_type = MsgType::kQueryResp;
        QueryRequest req;
        QueryResponse resp;
        if (!DecodeQueryRequest(payload, &req)) {
          resp.code = static_cast<std::uint8_t>(ErrorCode::kInvalidArgument);
          resp.error = "malformed query request";
        } else {
          handler_->HandleQuery(req, &resp);
        }
        BeginFrame(out, resp_type, hdr.request_id);
        WriteQueryResponse(out, resp);
        break;
      }
      case MsgType::kAdvertise: {
        AdvertiseMsg msg;
        if (DecodeAdvertise(payload, &msg)) handler_->HandleAdvertise(msg);
        stats_.server_cpu_ns.fetch_add(NowSteadyNs() - t0,
                                       std::memory_order_relaxed);
        return;  // no response
      }
      default:
        return;  // unknown frame: drop
    }
    if (!out.ok()) {
      // An answer the writer could not encode (a string past its u16 length
      // prefix) goes out as a lone error code instead of corrupt bytes; every
      // response decoder rejects it, so the client fails just this request.
      conn.wbuf.resize(frame_start);
      ByteWriter err(&conn.wbuf);
      BeginFrame(err, resp_type, hdr.request_id);
      err.U8(static_cast<std::uint8_t>(ErrorCode::kInternal));
      EndFrame(err, frame_start);
    } else {
      EndFrame(out, frame_start);
    }
    stats_.server_cpu_ns.fetch_add(NowSteadyNs() - t0,
                                   std::memory_order_relaxed);
    stats_.bytes_tx.fetch_add(conn.wbuf.size() - frame_start,
                              std::memory_order_relaxed);
    FlushConn(fd);
  }

  /// Answer one lookup request: the metadata plus the set's batch handle.
  LookupResponse AnswerLookup(std::span<const std::byte> payload) {
    LookupResponse resp;
    LookupRequest req;
    Status st = DecodeLookupRequest(payload, &req)
                    ? handler_->HandleLookup(req.instance, &resp.metadata)
                    : Status{ErrorCode::kInvalidArgument, "bad lookup"};
    if (st.ok()) resp.handle = handler_->HandleAssignHandle(req.instance);
    if (st.ok() && resp.handle == kInvalidSetHandle) {
      st = {ErrorCode::kNotFound, "no such set"};
    }
    if (!st.ok()) resp = LookupResponse{};
    resp.code = static_cast<std::uint8_t>(st.code());
    return resp;
  }

  void FlushConn(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    Conn& conn = it->second;
    while (conn.woff < conn.wbuf.size()) {
      const ssize_t n = ::send(fd, conn.wbuf.data() + conn.woff,
                               conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          // Arm EPOLLOUT until drained.
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT;
          ev.data.fd = fd;
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
          return;
        }
        if (errno == EINTR) continue;
        CloseConn(fd);
        return;
      }
      conn.woff += static_cast<std::size_t>(n);
    }
    // Drained: recycle the arena (capacity kept) and stop watching EPOLLOUT.
    conn.wbuf.clear();
    conn.woff = 0;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }

  ServiceHandler* handler_ = nullptr;
  std::string address_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread reactor_;
  std::atomic<bool> stop_{false};
  std::unordered_map<int, Conn> conns_;  // reactor thread only
};

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

// Pipelined client endpoint. Every request is tagged with a fresh
// request_id, recorded in a pending table, and written to the socket
// without waiting; a dedicated reader thread parses response frames and
// completes requests out of order by id. Each request carries a deadline
// (Endpoint::request_timeout); the reader expires overdue requests with
// kTimeout so a stalled peer cannot wedge a caller forever. Dir, LookupEx,
// UpdateBatch and RemoteQuery block on their own completion, so concurrent
// calls from many threads multiplex onto one socket.
class SockEndpoint final : public Endpoint {
 public:
  explicit SockEndpoint(int fd) : fd_(fd) {
    reader_ = std::thread([this] { ReaderLoop(); });
  }

  ~SockEndpoint() override {
    Close();
    if (reader_.joinable()) reader_.join();
    ::close(fd_);
  }

  bool connected() const override {
    return !closed_.load(std::memory_order_acquire);
  }

  void Close() override { Shutdown({ErrorCode::kDisconnected, "closed"}); }

  Status Dir(std::vector<std::string>* instances) override {
    std::vector<std::byte> payload;
    Status st = WaitFor(
        [&](AsyncHandler done) {
          SubmitRequest(MsgType::kDirReq, {}, MsgType::kDirResp,
                        std::move(done));
        },
        &payload);
    if (!st.ok()) return st;
    DirResponse resp;
    if (!DecodeDirResponse(payload, &resp)) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      return {ErrorCode::kInternal, "bad dir response"};
    }
    *instances = std::move(resp.instances);
    return Status::Ok();
  }

  Status LookupEx(const std::string& instance,
                  std::vector<std::byte>* metadata,
                  LookupExtra* extra) override {
    if (extra != nullptr) *extra = LookupExtra{};
    stats_.lookups.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::byte> payload;
    Status st = WaitFor(
        [&](AsyncHandler done) {
          SubmitRequest(MsgType::kLookupReq, EncodeLookupRequest({instance}),
                        MsgType::kLookupResp, std::move(done));
        },
        &payload);
    if (!st.ok()) return st;
    LookupResponse resp;
    if (!DecodeLookupResponse(payload, &resp)) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      return {ErrorCode::kInternal, "bad lookup response"};
    }
    if (resp.code != 0) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      return {static_cast<ErrorCode>(resp.code), "lookup failed"};
    }
    if (extra != nullptr) extra->handle = resp.handle;
    *metadata = std::move(resp.metadata);
    return Status::Ok();
  }

  void UpdateBatch(const std::vector<BatchUpdateSpec>& specs,
                   std::vector<BatchUpdateResult>* results) override {
    const std::size_t n = specs.size();
    results->assign(n, BatchUpdateResult{});
    if (n == 0) return;
    // The reply is keyed by handle, so each handle rides once; a repeat
    // would make the server reject the whole frame, so it fails alone.
    UpdateBatchRequest req;
    req.accept_delta = delta_updates();
    req.entries.reserve(n);
    std::unordered_map<std::uint32_t, std::size_t> by_handle;
    by_handle.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (by_handle.emplace(specs[i].handle, i).second) {
        req.entries.push_back({specs[i].handle, specs[i].last_dgn});
      } else {
        (*results)[i].status = {ErrorCode::kInvalidArgument,
                                "handle repeated in one batch"};
      }
    }
    stats_.update_batches.fetch_add(1, std::memory_order_relaxed);
    stats_.updates.fetch_add(req.entries.size(), std::memory_order_relaxed);
    // The response is decoded into the result slots on the reader thread as
    // it arrives; the caller only waits for that to finish.
    (void)WaitFor(
        [&](AsyncHandler done) {
          SubmitRequest(MsgType::kUpdateBatchReq,
                        EncodeUpdateBatchRequest(req),
                        MsgType::kUpdateBatchResp,
                        [&, done = std::move(done)](
                            Status st, std::vector<std::byte> payload) {
                          CompleteBatch(std::move(st), payload, by_handle,
                                        results);
                          done(Status::Ok(), {});
                        });
        },
        nullptr);
  }

  Status RemoteQuery(const QueryRequest& req, QueryResponse* resp) override {
    *resp = QueryResponse{};
    std::vector<std::byte> payload;
    Status st = WaitFor(
        [&](AsyncHandler done) {
          SubmitRequest(MsgType::kQueryReq, EncodeQueryRequest(req),
                        MsgType::kQueryResp, std::move(done));
        },
        &payload);
    if (!st.ok()) return st;
    if (!DecodeQueryResponse(payload, resp)) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      return {ErrorCode::kInternal, "bad query response"};
    }
    if (resp->code != 0) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      return {static_cast<ErrorCode>(resp->code),
              resp->error.empty() ? "query failed" : resp->error};
    }
    return Status::Ok();
  }

  Status Advertise(const AdvertiseMsg& msg) override {
    if (closed_.load(std::memory_order_acquire)) {
      return {ErrorCode::kDisconnected, "closed"};
    }
    const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    auto frame = EncodeFrame(MsgType::kAdvertise, id, EncodeAdvertise(msg));
    stats_.bytes_tx.fetch_add(frame.size(), std::memory_order_relaxed);
    const DurationNs timeout = request_timeout();
    const std::uint64_t deadline =
        timeout > 0 ? NowSteadyNs() + timeout : 0;
    std::lock_guard<std::mutex> lock(write_mu_);
    Status st = SendFrame(frame.data(), frame.size(), deadline);
    if (!st.ok()) stats_.errors.fetch_add(1, std::memory_order_relaxed);
    return st;
  }

 private:
  struct Pending {
    MsgType expect = MsgType::kDirResp;
    std::uint64_t deadline = 0;  // steady ns; 0 = no deadline
    AsyncHandler handler;
  };

  /// Issue an async request via @p issue and block until its handler runs.
  template <typename IssueFn>
  static Status WaitFor(IssueFn&& issue, std::vector<std::byte>* out) {
    struct Waiter {
      std::mutex mu;
      std::condition_variable cv;
      bool done = false;
      Status st;
      std::vector<std::byte> bytes;
    } waiter;
    issue([&waiter](Status st, std::vector<std::byte> bytes) {
      std::lock_guard<std::mutex> lock(waiter.mu);
      waiter.st = std::move(st);
      waiter.bytes = std::move(bytes);
      waiter.done = true;
      waiter.cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(waiter.mu);
    waiter.cv.wait(lock, [&waiter] { return waiter.done; });
    if (out != nullptr) *out = std::move(waiter.bytes);
    return waiter.st;
  }

  /// Map a kUpdateBatchResp payload (or a whole-batch failure) back onto the
  /// result slot of each handle in @p by_handle.
  void CompleteBatch(Status st, std::span<const std::byte> payload,
                     const std::unordered_map<std::uint32_t, std::size_t>&
                         by_handle,
                     std::vector<BatchUpdateResult>* results) {
    auto fail_all = [&](const Status& why) {
      for (const auto& [handle, i] : by_handle) (*results)[i].status = why;
    };
    if (!st.ok()) {
      fail_all(st);
      return;
    }
    UpdateBatchResponse resp;
    if (!DecodeUpdateBatchResponse(payload, &resp)) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      fail_all({ErrorCode::kInternal, "bad batch response"});
      return;
    }
    if (resp.code != 0) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      fail_all({static_cast<ErrorCode>(resp.code), "batch update failed"});
      return;
    }
    // Entries the server never answered (it must answer all, but a buggy or
    // hostile peer may not) fall through with kInternal below.
    fail_all({ErrorCode::kInternal, "missing batch entry"});
    for (auto& e : resp.entries) {
      auto it = by_handle.find(e.handle);
      if (it == by_handle.end()) continue;  // unknown handle: drop
      BatchUpdateResult& r = (*results)[it->second];
      switch (e.kind) {
        case BatchEntryKind::kUnchanged:
          r.status = Status::Ok();
          r.unchanged = true;
          stats_.updates_unchanged.fetch_add(1, std::memory_order_relaxed);
          break;
        case BatchEntryKind::kData:
          r.status = Status::Ok();
          r.data = std::move(e.data);
          break;
        case BatchEntryKind::kDelta:
          // Structural validity was already enforced by the decoder; the
          // caller applies the payload straight into its mirror chunk via
          // ApplyDelta (which re-checks MGN/base-DGN against the mirror).
          r.status = Status::Ok();
          r.delta = true;
          r.data = std::move(e.data);
          stats_.updates_delta.fetch_add(1, std::memory_order_relaxed);
          break;
        case BatchEntryKind::kError:
          r.status = {static_cast<ErrorCode>(e.code),
                      e.code == static_cast<std::uint8_t>(ErrorCode::kNotFound)
                          ? "unknown set handle"
                          : "batch entry failed"};
          break;
      }
    }
  }

  /// Register the request in the pending table, then write the frame. The
  /// handler is guaranteed to run exactly once: on response, on deadline
  /// expiry, on send failure, or when the endpoint shuts down.
  void SubmitRequest(MsgType type, std::span<const std::byte> payload,
                     MsgType expect, AsyncHandler handler) {
    const DurationNs timeout = request_timeout();
    const std::uint64_t deadline =
        timeout > 0 ? NowSteadyNs() + timeout : 0;
    std::uint64_t id;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (closed_.load(std::memory_order_relaxed)) {
        lock.unlock();
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
        handler({ErrorCode::kDisconnected, "closed"}, {});
        return;
      }
      id = next_id_.fetch_add(1, std::memory_order_relaxed);
      pending_.emplace(id, Pending{expect, deadline, std::move(handler)});
    }
    stats_.outstanding.fetch_add(1, std::memory_order_relaxed);
    Status st;
    {
      std::lock_guard<std::mutex> lock(write_mu_);
      // Encode into the reusable scratch (capacity kept across requests) so
      // the steady-state request path does not allocate.
      frame_scratch_.clear();
      ByteWriter w(&frame_scratch_);
      const std::size_t start = BeginFrame(w, type, id);
      w.Raw(payload.data(), payload.size());
      EndFrame(w, start);
      stats_.bytes_tx.fetch_add(frame_scratch_.size(),
                                std::memory_order_relaxed);
      st = SendFrame(frame_scratch_.data(), frame_scratch_.size(), deadline);
    }
    if (st.ok()) return;
    // Pull the request back out — unless the reader already failed it.
    AsyncHandler doomed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = pending_.find(id);
      if (it != pending_.end()) {
        doomed = std::move(it->second.handler);
        pending_.erase(it);
      }
    }
    if (doomed) {
      stats_.outstanding.fetch_sub(1, std::memory_order_relaxed);
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      if (st.code() == ErrorCode::kTimeout) {
        stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
      }
      doomed(st, {});
    }
    if (st.code() == ErrorCode::kDisconnected) Shutdown(st);
  }

  /// Write a whole frame to the non-blocking socket, waiting (bounded by
  /// @p deadline) when the send buffer is full.
  Status SendFrame(const std::byte* data, std::size_t size,
                   std::uint64_t deadline) {
    std::size_t off = 0;
    while (off < size) {
      const ssize_t n = ::send(fd_, data + off, size - off, MSG_NOSIGNAL);
      if (n >= 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (deadline != 0 && NowSteadyNs() >= deadline) {
          return {ErrorCode::kTimeout, "send deadline exceeded"};
        }
        pollfd pfd{};
        pfd.fd = fd_;
        pfd.events = POLLOUT;
        ::poll(&pfd, 1, kPollSliceMs);
        continue;
      }
      return {ErrorCode::kDisconnected, std::strerror(errno)};
    }
    return Status::Ok();
  }

  void ReaderLoop() {
    std::vector<std::byte> rbuf;
    std::size_t roff = 0;
    std::byte chunk[65536];
    while (!closed_.load(std::memory_order_acquire)) {
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      const int pr = ::poll(&pfd, 1, kPollSliceMs);
      if (closed_.load(std::memory_order_acquire)) return;
      if (pr < 0) {
        if (errno == EINTR) continue;
        Shutdown({ErrorCode::kDisconnected, std::strerror(errno)});
        return;
      }
      ExpireRequests(NowSteadyNs());
      if (pr == 0) continue;
      // Drain the socket (non-blocking). A close/error is noted but only
      // acted on after the parse pass: responses that arrived together with
      // the peer's FIN must still complete their requests.
      Status drain_st = Status::Ok();
      for (;;) {
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n > 0) {
          rbuf.insert(rbuf.end(), chunk, chunk + n);
          stats_.bytes_rx.fetch_add(static_cast<std::uint64_t>(n),
                                    std::memory_order_relaxed);
          continue;
        }
        if (n == 0) {
          drain_st = {ErrorCode::kDisconnected, "peer closed"};
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        drain_st = {ErrorCode::kDisconnected, std::strerror(errno)};
        break;
      }
      // Complete every whole frame buffered so far, in arrival order.
      while (rbuf.size() - roff >= kFrameHeaderSize) {
        const FrameHeader hdr = DecodeFrameHeader(
            std::span<const std::byte>(rbuf).subspan(roff));
        if (hdr.payload_len > kMaxFramePayload) {
          Shutdown({ErrorCode::kInternal, "oversized frame from peer"});
          return;
        }
        const std::size_t total = kFrameHeaderSize + hdr.payload_len;
        if (rbuf.size() - roff < total) break;
        CompleteRequest(hdr, std::span<const std::byte>(rbuf).subspan(
                                 roff + kFrameHeaderSize, hdr.payload_len));
        roff += total;
      }
      if (roff == rbuf.size()) {
        rbuf.clear();
        roff = 0;
      } else if (roff >= kCompactBytes) {
        rbuf.erase(rbuf.begin(),
                   rbuf.begin() + static_cast<std::ptrdiff_t>(roff));
        roff = 0;
      }
      if (!drain_st.ok()) {
        Shutdown(drain_st);
        return;
      }
    }
  }

  void CompleteRequest(const FrameHeader& hdr,
                       std::span<const std::byte> payload) {
    AsyncHandler handler;
    Status st = Status::Ok();
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = pending_.find(hdr.request_id);
      // Unknown id: a response that arrived after its request timed out, or
      // junk from the peer. Drop it.
      if (it == pending_.end()) return;
      if (it->second.expect != hdr.type) {
        st = {ErrorCode::kInternal, "mismatched response type"};
      }
      handler = std::move(it->second.handler);
      pending_.erase(it);
    }
    stats_.outstanding.fetch_sub(1, std::memory_order_relaxed);
    if (!st.ok()) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      handler(std::move(st), {});
      return;
    }
    handler(Status::Ok(),
            std::vector<std::byte>(payload.begin(), payload.end()));
  }

  /// Complete every pending request whose deadline has passed with kTimeout.
  /// The connection stays open: a slow peer's late responses are dropped by
  /// request-id, only a disconnect closes the socket.
  void ExpireRequests(std::uint64_t now) {
    std::vector<AsyncHandler> expired;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = pending_.begin(); it != pending_.end();) {
        if (it->second.deadline != 0 && it->second.deadline <= now) {
          expired.push_back(std::move(it->second.handler));
          it = pending_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& handler : expired) {
      stats_.outstanding.fetch_sub(1, std::memory_order_relaxed);
      stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      handler({ErrorCode::kTimeout, "request deadline exceeded"}, {});
    }
  }

  /// Mark the endpoint closed, wake both socket directions, and fail every
  /// pending request with @p reason. Idempotent; callable from any thread
  /// including the reader.
  void Shutdown(const Status& reason) {
    std::vector<AsyncHandler> doomed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!closed_.exchange(true, std::memory_order_acq_rel)) {
        ::shutdown(fd_, SHUT_RDWR);
      }
      doomed.reserve(pending_.size());
      for (auto& [id, pending] : pending_) {
        doomed.push_back(std::move(pending.handler));
      }
      pending_.clear();
    }
    for (auto& handler : doomed) {
      stats_.outstanding.fetch_sub(1, std::memory_order_relaxed);
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      handler(reason, {});
    }
  }

  const int fd_;
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mu_;  // guards pending_ and the closed_ transition
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::mutex write_mu_;  // serializes whole-frame writes
  std::vector<std::byte> frame_scratch_;  // guarded by write_mu_
  std::thread reader_;
};

}  // namespace

Status SockTransport::Listen(const std::string& address,
                             ServiceHandler* handler,
                             std::unique_ptr<Listener>* listener) {
  auto l = std::make_unique<SockListener>();
  Status st = l->Start(address, handler);
  if (!st.ok()) return st;
  *listener = std::move(l);
  return Status::Ok();
}

Status SockTransport::Connect(const std::string& address,
                              std::unique_ptr<Endpoint>* endpoint) {
  sockaddr_in addr{};
  Status st = ParseAddress(address, /*for_listen=*/false, &addr);
  if (!st.ok()) return st;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return {ErrorCode::kInternal, std::strerror(errno)};
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return {ErrorCode::kDisconnected, "connect " + address + ": " + err};
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  SetNonBlocking(fd);
  *endpoint = std::make_unique<SockEndpoint>(fd);
  return Status::Ok();
}

}  // namespace ldmsxx
