// Transport plugin abstraction. ldmsd loads one transport per connection
// type; the paper ships sock (TCP), rdma (Infiniband/iWARP), and ugni
// (Gemini). We provide:
//   "local" — in-process two-sided transport (function-call fabric)
//   "sock"  — real TCP over loopback with an epoll reactor server
//   "rdma"  — simulated IB RDMA: one-sided data reads that consume no
//             target CPU (modeled after Figure 2's note on flow {f})
//   "ugni"  — simulated Gemini RDMA; same semantics, different fan-in and
//             latency envelope
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/metric_set.hpp"
#include "transport/message.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace ldmsxx {

/// Counters every endpoint/listener maintains; benches read these for the
/// network-footprint rows of §IV-D.
struct TransportStats {
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> updates{0};
  std::atomic<std::uint64_t> bytes_tx{0};
  std::atomic<std::uint64_t> bytes_rx{0};
  std::atomic<std::uint64_t> errors{0};
  /// Requests issued but not yet answered (gauge): sock's one call in
  /// flight; transports that complete inline leave it at 0.
  std::atomic<std::uint64_t> outstanding{0};
  /// Requests completed with kTimeout after exceeding their deadline.
  std::atomic<std::uint64_t> timeouts{0};
  /// Nanoseconds of *server-side* CPU consumed servicing this peer; stays 0
  /// for one-sided RDMA data fetches.
  std::atomic<std::uint64_t> server_cpu_ns{0};
  /// kUpdateBatchReq frames issued (client) or served (listener). Each batch
  /// frame replaces `entries` individual update round-trips; `updates` still
  /// counts per-set results so the ratio updates/update_batches is the
  /// amortization factor.
  std::atomic<std::uint64_t> update_batches{0};
  /// Batch entries answered with the 5-byte "unchanged" marker instead of a
  /// full data chunk (DGN gate hit).
  std::atomic<std::uint64_t> updates_unchanged{0};
  /// Batch entries answered with a changed-extents delta instead of a full
  /// data chunk (the DGN advanced exactly one transaction and the dirty set
  /// was small enough to win).
  std::atomic<std::uint64_t> updates_delta{0};
  /// Wire bytes avoided by those deltas: sum over delta entries of
  /// (full data chunk size - delta payload size).
  std::atomic<std::uint64_t> delta_bytes_saved{0};
};

/// Service interface a daemon exposes to its listeners. Implemented by
/// Ldmsd; invoked by transport server machinery.
class ServiceHandler {
 public:
  virtual ~ServiceHandler() = default;

  /// List available set instance names.
  virtual std::vector<std::string> HandleDir() = 0;

  /// Return the serialized metadata chunk for @p instance.
  virtual Status HandleLookup(const std::string& instance,
                              std::vector<std::byte>* metadata) = 0;

  /// A producer announced itself and asks to be collected from via
  /// @p dialback (asymmetric-network support). Default: ignore.
  virtual void HandleAdvertise(const AdvertiseMsg& msg) { (void)msg; }

  /// Assign (or return the existing) compact handle for @p instance, which
  /// batch updates address the set by; kInvalidSetHandle when the instance
  /// is unknown.
  virtual std::uint32_t HandleAssignHandle(const std::string& instance) = 0;

  /// Resolve a handle previously returned by HandleAssignHandle back to the
  /// live set. Returns nullptr for unknown/stale handles (e.g. the set was
  /// removed); batch serving turns that into a per-entry kNotFound. RDMA
  /// transports resolve once at lookup and pin the set, so their pulls never
  /// come back here.
  virtual MetricSetPtr HandleResolveHandle(std::uint32_t handle) = 0;

  /// Run a tsdb predicate against this daemon's local store (tree-sharded
  /// query fan-out). The default, for handlers without a store, fails the
  /// whole request with kUnsupported, which a fanning-out root counts as a
  /// failed leaf rather than a transport error.
  virtual void HandleQuery(const QueryRequest& req, QueryResponse* resp) {
    (void)req;
    resp->code = static_cast<std::uint8_t>(ErrorCode::kUnsupported);
    resp->error = "query not supported by this peer";
  }
};

/// Default per-request deadline for transports that enforce one. Generous:
/// its job is to unwedge aggregator threads from a stalled peer, not to
/// police slow-but-alive ones.
constexpr DurationNs kDefaultRequestTimeoutNs = 5 * kNsPerSec;

/// Completion of LookupAsync/UpdateAsync: the status plus the response body
/// (empty on failure). Nothing completes asynchronously any more: both base
/// bodies run the handler inline, before they return. The type stays only
/// for the calls below that the pipeline benchmark overrides.
using AsyncHandler = std::function<void(Status, std::vector<std::byte>)>;

/// Client side of a connection to one peer. Data moves one way only: look a
/// set up once (LookupEx: metadata plus the handle the peer assigned), then
/// pull every set of the peer each interval with one UpdateBatch.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  virtual bool connected() const = 0;
  virtual void Close() = 0;

  /// Set discovery (flow preceding lookup).
  virtual Status Dir(std::vector<std::string>* instances) = 0;

  /// Extra fields carried in a lookup response besides the metadata.
  struct LookupExtra {
    std::uint32_t handle = kInvalidSetHandle;
  };

  /// Fetch serialized metadata for @p instance and the handle the peer
  /// assigned to it (Figure 2 flows {a}-{b}). @p extra may be null.
  virtual Status LookupEx(const std::string& instance,
                          std::vector<std::byte>* metadata,
                          LookupExtra* extra) = 0;

  /// One set's slot in a batched pull.
  struct BatchUpdateSpec {
    std::uint32_t handle = kInvalidSetHandle;
    std::uint64_t last_dgn = 0;  // DGN the caller last consumed
  };

  /// Per-spec outcome of UpdateBatch.
  struct BatchUpdateResult {
    Status status;
    bool unchanged = false;  // peer answered with the 5-byte DGN-gate marker
    /// data holds a delta payload (apply with MetricSet::ApplyDelta) rather
    /// than a full data chunk.
    bool delta = false;
    std::vector<std::byte> data;  // data chunk; empty if unchanged or failed
  };

  /// Pull every spec in one kUpdateBatchReq round trip (flows {e}-{g}): per
  /// handle the peer answers unchanged, a delta, the full data chunk, or a
  /// per-entry error (kNotFound for an unknown handle), as ServeBatchEntry
  /// decides. Handles must be distinct within one call, because the wire
  /// response is keyed by handle; sock fails a repeated handle alone with
  /// kInvalidArgument. Synchronous: returns once every result is filled,
  /// in spec order.
  virtual void UpdateBatch(const std::vector<BatchUpdateSpec>& specs,
                           std::vector<BatchUpdateResult>* results) = 0;

  /// Fire-and-forget advertise (producer-initiated connection setup).
  virtual Status Advertise(const AdvertiseMsg& msg) = 0;

  /// Forward a tsdb query to the peer and wait for its result page. The
  /// base implementation reports kUnsupported — only transports that carry
  /// kQueryReq frames (sock, local) override it.
  virtual Status RemoteQuery(const QueryRequest& req, QueryResponse* resp);

  // The calls below stay virtual only because the pipeline benchmark's
  // tracing decorator (perfbench/src/decorators.cpp) overrides them, and the
  // benchmark is changed only together with its baseline. No transport
  // overrides them and nothing in the daemon calls them: Lookup is LookupEx
  // without extras, the async pair completes inline, UpdateRaw (the retired
  // per-set pull) reports kUnsupported, and the write cork is a no-op.
  virtual Status Lookup(const std::string& instance,
                        std::vector<std::byte>* metadata);
  virtual void LookupAsync(const std::string& instance, AsyncHandler handler);
  virtual Status UpdateRaw(const std::string& instance,
                           std::vector<std::byte>* data);
  virtual void UpdateAsync(const std::string& instance, AsyncHandler handler);
  virtual void CorkWrites() {}
  virtual void UncorkWrites() {}

  /// Whether this client accepts delta-encoded batch entries (declared in
  /// the batch request's revision byte). On by default; tests and ablation
  /// benches turn it off to force the full-chunk path on an otherwise
  /// identical schedule.
  void set_delta_updates(bool enabled) {
    delta_updates_.store(enabled, std::memory_order_relaxed);
  }
  bool delta_updates() const {
    return delta_updates_.load(std::memory_order_relaxed);
  }

  /// Per-request deadline; a request not completed within it finishes with
  /// kTimeout. 0 disables the deadline. Only transports with a real wire in
  /// between enforce it (sock); in-process transports complete inline.
  void set_request_timeout(DurationNs timeout) {
    request_timeout_ns_.store(timeout, std::memory_order_relaxed);
  }
  DurationNs request_timeout() const {
    return request_timeout_ns_.load(std::memory_order_relaxed);
  }

  const TransportStats& stats() const { return stats_; }

 protected:
  TransportStats stats_;
  std::atomic<DurationNs> request_timeout_ns_{kDefaultRequestTimeoutNs};
  std::atomic<bool> delta_updates_{true};
};

/// How ServeBatchEntry answered one entry.
struct ServedEntry {
  BatchEntryKind kind = BatchEntryKind::kError;
  ErrorCode error = ErrorCode::kOk;  // kError entries
  /// kDelta entries: full chunk size minus the delta payload size.
  std::uint64_t bytes_saved = 0;

  /// Count this answer into @p stats (updates_unchanged, updates_delta,
  /// delta_bytes_saved); a null @p stats is ignored.
  void CountInto(TransportStats* stats) const;
};

/// The batch serving policy, the same for every transport. For @p set (null
/// = unknown handle: kError/kNotFound), given the @p last_dgn the client
/// holds: the DGN gate answers kUnchanged when the client already has the
/// current consistent chunk; else, when @p accept_delta and the set advanced
/// exactly one transaction past last_dgn with a delta smaller than the chunk,
/// kDelta; else the full chunk (kData), or kError when the snapshot stayed
/// torn. The kData/kDelta payload is appended to @p out, which sock points at
/// its connection buffer (the chunk lands in the frame with no copy) and
/// local/rdma at the result's data; nothing is appended otherwise.
ServedEntry ServeBatchEntry(const MetricSet* set, std::uint64_t last_dgn,
                            bool accept_delta, ByteWriter& out);

/// Server side: alive while in scope; dispatches requests to the handler.
class Listener {
 public:
  virtual ~Listener() = default;
  virtual std::string address() const = 0;
  const TransportStats& stats() const { return stats_; }

 protected:
  TransportStats stats_;
};

/// A transport plugin: a factory for listeners and endpoints.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Plugin name ("sock", "rdma", "ugni", "local").
  virtual const std::string& name() const = 0;

  /// Start serving @p handler at @p address. The listener stops when the
  /// returned object is destroyed.
  virtual Status Listen(const std::string& address, ServiceHandler* handler,
                        std::unique_ptr<Listener>* listener) = 0;

  /// Connect to a listening peer.
  virtual Status Connect(const std::string& address,
                         std::unique_ptr<Endpoint>* endpoint) = 0;
};

}  // namespace ldmsxx
