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

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "util/strings.hpp"

namespace ldmsxx {
namespace {

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

/// Free room a receive needs in the buffer before it grows.
constexpr std::size_t kRecvRoom = 16 << 10;

/// Compact a receive buffer only once this many consumed bytes accumulate,
/// so draining N buffered frames costs one memmove, not N.
constexpr std::size_t kCompactBytes = 256 << 10;

/// The receive side of one connection, shared by the listener's
/// connections and the client endpoint. Bytes are received straight into
/// one reusable buffer and whole frames are taken off its front; the
/// consumed prefix is dropped lazily, at the next Fill.
class FrameReader {
 public:
  enum class Next { kFrame, kPartial, kOversized };

  /// Receive everything @p fd holds without blocking. Ok once the socket is
  /// drained; kDisconnected on end-of-file or a socket error, with every
  /// byte that arrived before it still buffered. Invalidates the payload
  /// views Take handed out.
  Status Fill(int fd, std::atomic<std::uint64_t>& bytes_rx) {
    if (begin_ == end_) {
      begin_ = end_ = 0;
    } else if (begin_ >= kCompactBytes) {
      std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    for (;;) {
      if (buf_.size() - end_ < kRecvRoom) {
        buf_.resize(std::max(buf_.capacity(), end_ + kRecvRoom));
      }
      const ssize_t n =
          ::recv(fd, buf_.data() + end_, buf_.size() - end_, 0);
      if (n > 0) {
        end_ += static_cast<std::size_t>(n);
        bytes_rx.fetch_add(static_cast<std::uint64_t>(n),
                           std::memory_order_relaxed);
        continue;
      }
      if (n == 0) return {ErrorCode::kDisconnected, "peer closed"};
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::Ok();
      if (errno == EINTR) continue;
      return {ErrorCode::kDisconnected, std::strerror(errno)};
    }
  }

  /// Take the next whole frame: its header, and a view of its payload that
  /// stays valid until the next Fill. kPartial while no whole frame is
  /// buffered; kOversized when the next header announces a payload over
  /// kMaxFramePayload (a corrupt or hostile peer: close the connection).
  Next Take(FrameHeader* hdr, std::span<const std::byte>* payload) {
    const std::span<const std::byte> bytes(buf_.data() + begin_,
                                           end_ - begin_);
    if (bytes.size() < kFrameHeaderSize) return Next::kPartial;
    *hdr = DecodeFrameHeader(bytes);
    if (hdr->payload_len > kMaxFramePayload) return Next::kOversized;
    if (bytes.size() - kFrameHeaderSize < hdr->payload_len) {
      return Next::kPartial;
    }
    *payload = bytes.subspan(kFrameHeaderSize, hdr->payload_len);
    begin_ += kFrameHeaderSize + hdr->payload_len;
    return Next::kFrame;
  }

 private:
  std::vector<std::byte> buf_;  // [begin_, end_) is received, not taken
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

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
    FrameReader reader;
    /// Outgoing frames, encoded in place back-to-back. woff marks the bytes
    /// already sent; the buffer is cleared when drained, so steady state
    /// reuses its capacity.
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
    if (!conn.reader.Fill(fd, stats_.bytes_rx).ok()) {
      CloseConn(fd);
      return false;
    }
    FrameHeader hdr;
    std::span<const std::byte> payload;
    for (;;) {
      switch (conn.reader.Take(&hdr, &payload)) {
        case FrameReader::Next::kPartial:
          return true;
        case FrameReader::Next::kOversized:
          CloseConn(fd);  // corrupt or hostile peer
          return false;
        case FrameReader::Next::kFrame:
          HandleFrame(fd, conn, hdr, payload);
          break;
      }
      // A failed send in HandleFrame closes fd and frees conn.
      if (!conns_.contains(fd)) return false;
    }
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

/// Wait until @p fd is ready for @p events or @p deadline (steady ns, 0 =
/// none) passes. False only on timeout; a poll error is left to the next
/// send or recv to report.
bool WaitReady(int fd, short events, std::uint64_t deadline) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline != 0) {
      const std::uint64_t now = NowSteadyNs();
      if (now >= deadline) return false;
      timeout_ms = static_cast<int>(
          std::min<std::uint64_t>((deadline - now + kNsPerMs - 1) / kNsPerMs,
                                  std::numeric_limits<int>::max()));
    }
    pollfd pfd{fd, events, 0};
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n > 0 || (n < 0 && errno != EINTR)) return true;
  }
}

// Client endpoint, one request at a time. A call takes the endpoint's mutex,
// writes its frame and reads frames on the calling thread until the answer
// carrying its request id arrives; a frame with another id is a late answer
// to a request that timed out, and is dropped. Past the request's deadline
// (Endpoint::request_timeout) the call fails with kTimeout and the
// connection stays up, a partly received frame included. End-of-file, a
// socket error or an oversized frame header closes the endpoint. Every pull
// of a producer's sets is one batch frame, so one request in flight per
// connection is all a caller needs, and the endpoint starts no thread.
class SockEndpoint final : public Endpoint {
 public:
  explicit SockEndpoint(int fd) : fd_(fd) {}

  ~SockEndpoint() override {
    Close();
    ::close(fd_);
  }

  /// Also polls for a hang-up, so an endpoint that issues no requests (a
  /// warm standby) still notices that its peer is gone.
  bool connected() const override {
    if (closed_.load(std::memory_order_acquire)) return false;
    pollfd pfd{fd_, POLLRDHUP, 0};
    return ::poll(&pfd, 1, 0) <= 0;
  }

  /// Does not take the call mutex: a caller blocked in a request wakes up
  /// and fails with kDisconnected.
  void Close() override {
    if (!closed_.exchange(true, std::memory_order_acq_rel)) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

  Status Dir(std::vector<std::string>* instances) override {
    return Call(MsgType::kDirReq, {}, MsgType::kDirResp,
                [&](std::span<const std::byte> payload) {
                  DirResponse resp;
                  if (!DecodeDirResponse(payload, &resp)) {
                    return Fail({ErrorCode::kInternal, "bad dir response"});
                  }
                  *instances = std::move(resp.instances);
                  return Status::Ok();
                });
  }

  Status LookupEx(const std::string& instance,
                  std::vector<std::byte>* metadata,
                  LookupExtra* extra) override {
    if (extra != nullptr) *extra = LookupExtra{};
    stats_.lookups.fetch_add(1, std::memory_order_relaxed);
    return Call(MsgType::kLookupReq, EncodeLookupRequest({instance}),
                MsgType::kLookupResp, [&](std::span<const std::byte> payload) {
                  LookupResponse resp;
                  if (!DecodeLookupResponse(payload, &resp)) {
                    return Fail({ErrorCode::kInternal, "bad lookup response"});
                  }
                  if (resp.code != 0) {
                    return Fail({static_cast<ErrorCode>(resp.code),
                                 "lookup failed"});
                  }
                  if (extra != nullptr) extra->handle = resp.handle;
                  *metadata = std::move(resp.metadata);
                  return Status::Ok();
                });
  }

  void UpdateBatch(const std::vector<BatchUpdateSpec>& specs,
                   std::vector<BatchUpdateResult>* results) override {
    const std::size_t n = specs.size();
    // A slot keeps its data buffer from the last call (the daemon passes the
    // same vector every cycle), so a steady pull copies each chunk into
    // memory the slot already holds instead of allocating one per entry.
    results->resize(n);
    for (auto& r : *results) Reset(r, Status::Ok());
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
    const Status st = Call(
        MsgType::kUpdateBatchReq, EncodeUpdateBatchRequest(req),
        MsgType::kUpdateBatchResp, [&](std::span<const std::byte> payload) {
          return DecodeBatch(payload, by_handle, results);
        });
    if (!st.ok()) {
      for (const auto& [handle, i] : by_handle) Reset((*results)[i], st);
    }
  }

  Status RemoteQuery(const QueryRequest& req, QueryResponse* resp) override {
    *resp = QueryResponse{};
    return Call(MsgType::kQueryReq, EncodeQueryRequest(req),
                MsgType::kQueryResp, [&](std::span<const std::byte> payload) {
                  if (!DecodeQueryResponse(payload, resp)) {
                    return Fail({ErrorCode::kInternal, "bad query response"});
                  }
                  if (resp->code != 0) {
                    return Fail({static_cast<ErrorCode>(resp->code),
                                 resp->error.empty() ? "query failed"
                                                     : resp->error});
                  }
                  return Status::Ok();
                });
  }

  Status Advertise(const AdvertiseMsg& msg) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_.load(std::memory_order_acquire)) {
      return {ErrorCode::kDisconnected, "closed"};
    }
    Status st = Send(MsgType::kAdvertise, next_id_++, EncodeAdvertise(msg),
                     Deadline());
    return st.ok() ? st : Fail(std::move(st));
  }

 private:
  Status Fail(Status st) {
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    return st;
  }

  std::uint64_t Deadline() const {
    const DurationNs timeout = request_timeout();
    return timeout > 0 ? NowSteadyNs() + timeout : 0;
  }

  /// One exchange under the call mutex: send the request, read up to its
  /// answer, and hand the answer's payload (a view into the receive buffer)
  /// to @p decode.
  template <typename Decode>
  Status Call(MsgType type, std::span<const std::byte> payload,
              MsgType expect, Decode&& decode) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_.load(std::memory_order_acquire)) {
      return Fail({ErrorCode::kDisconnected, "closed"});
    }
    stats_.outstanding.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t id = next_id_++;
    const std::uint64_t deadline = Deadline();
    std::span<const std::byte> answer;
    Status st = Send(type, id, payload, deadline);
    if (st.ok()) st = Receive(id, expect, deadline, &answer);
    stats_.outstanding.fetch_sub(1, std::memory_order_relaxed);
    if (!st.ok()) {
      if (st.code() == ErrorCode::kTimeout) {
        stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
      }
      return Fail(std::move(st));
    }
    return decode(answer);
  }

  /// Write one whole frame, waiting until @p deadline while the send buffer
  /// is full. A failed write, or a timeout part-way through the frame,
  /// closes the endpoint: the peer could no longer find the next frame.
  Status Send(MsgType type, std::uint64_t id,
              std::span<const std::byte> payload, std::uint64_t deadline) {
    // The scratch keeps its capacity, so steady-state requests do not
    // allocate.
    frame_.clear();
    ByteWriter w(&frame_);
    const std::size_t start = BeginFrame(w, type, id);
    w.Raw(payload.data(), payload.size());
    EndFrame(w, start);
    stats_.bytes_tx.fetch_add(frame_.size(), std::memory_order_relaxed);
    std::size_t off = 0;
    while (off < frame_.size()) {
      const ssize_t n =
          ::send(fd_, frame_.data() + off, frame_.size() - off, MSG_NOSIGNAL);
      if (n >= 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        Status st{ErrorCode::kDisconnected, std::strerror(errno)};
        Close();
        return st;
      }
      if (!WaitReady(fd_, POLLOUT, deadline)) {
        if (off > 0) Close();
        return {ErrorCode::kTimeout, "send deadline exceeded"};
      }
    }
    return Status::Ok();
  }

  /// Read frames until the answer to request @p id arrives; frames with
  /// other ids are late answers to timed-out requests, and are dropped.
  Status Receive(std::uint64_t id, MsgType expect, std::uint64_t deadline,
                 std::span<const std::byte>* answer) {
    Status gone = Status::Ok();  // the socket's end-of-file or error
    for (;;) {
      FrameHeader hdr;
      switch (frames_.Take(&hdr, answer)) {
        case FrameReader::Next::kFrame:
          if (hdr.request_id != id) continue;
          if (hdr.type != expect) {
            return {ErrorCode::kInternal, "mismatched response type"};
          }
          return Status::Ok();
        case FrameReader::Next::kOversized:
          Close();
          return {ErrorCode::kInternal, "oversized frame from peer"};
        case FrameReader::Next::kPartial:
          break;
      }
      // Frames that arrived together with the peer's FIN were taken above.
      if (!gone.ok()) return gone;
      if (!WaitReady(fd_, POLLIN, deadline)) {
        return {ErrorCode::kTimeout, "request deadline exceeded"};
      }
      gone = frames_.Fill(fd_, stats_.bytes_rx);
      if (!gone.ok()) Close();
    }
  }

  static void Reset(BatchUpdateResult& r, Status status) {
    r.status = std::move(status);
    r.unchanged = false;
    r.delta = false;
    r.data.clear();
  }

  /// Fill each handle's result slot from a kUpdateBatchResp payload, copying
  /// entry data from the receive buffer into the slot.
  Status DecodeBatch(std::span<const std::byte> payload,
                     const std::unordered_map<std::uint32_t, std::size_t>&
                         by_handle,
                     std::vector<BatchUpdateResult>* results) {
    std::vector<bool> answered(results->size());
    std::uint8_t code = 0;
    std::uint64_t unchanged = 0;
    std::uint64_t deltas = 0;
    const bool ok = VisitUpdateBatchResponse(
        payload, &code, [&](const BatchEntryView& e) {
          auto it = by_handle.find(e.handle);
          if (it == by_handle.end()) return;  // unknown handle: drop
          answered[it->second] = true;
          BatchUpdateResult& r = (*results)[it->second];
          r.status = Status::Ok();
          switch (e.kind) {
            case BatchEntryKind::kUnchanged:
              r.unchanged = true;
              ++unchanged;
              break;
            case BatchEntryKind::kDelta:
              // Structural validity was already enforced by the decoder; the
              // caller applies the payload straight into its mirror chunk via
              // ApplyDelta (which re-checks MGN/base-DGN against the mirror).
              r.delta = true;
              ++deltas;
              r.data.assign(e.data.begin(), e.data.end());
              break;
            case BatchEntryKind::kData:
              r.data.assign(e.data.begin(), e.data.end());
              break;
            case BatchEntryKind::kError:
              r.status = {static_cast<ErrorCode>(e.code),
                          e.code == static_cast<std::uint8_t>(
                                        ErrorCode::kNotFound)
                              ? "unknown set handle"
                              : "batch entry failed"};
              break;
          }
        });
    if (!ok) return Fail({ErrorCode::kInternal, "bad batch response"});
    if (code != 0) {
      return Fail({static_cast<ErrorCode>(code), "batch update failed"});
    }
    // Entries the server never answered (it must answer all, but a buggy or
    // hostile peer may not) fail with kInternal. Setting this only now keeps
    // a status message allocation per entry off the common path.
    for (const auto& [handle, i] : by_handle) {
      if (!answered[i]) {
        (*results)[i].status = {ErrorCode::kInternal, "missing batch entry"};
      }
    }
    stats_.updates_unchanged.fetch_add(unchanged, std::memory_order_relaxed);
    stats_.updates_delta.fetch_add(deltas, std::memory_order_relaxed);
    return Status::Ok();
  }

  const int fd_;
  std::atomic<bool> closed_{false};
  std::mutex mu_;  // one call at a time; guards the members below
  std::uint64_t next_id_ = 1;
  std::vector<std::byte> frame_;  // request encoding scratch
  FrameReader frames_;
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
