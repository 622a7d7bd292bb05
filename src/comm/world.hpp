#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"

namespace exaclim {

/// Matches any source rank in Recv (like MPI_ANY_SOURCE).
inline constexpr int kAnySource = -1;

/// Timeout value meaning "wait forever" for RecvTimeout / Deadline. A
/// bounded call with this timeout still reports kPeerDead instead of
/// throwing, which is how the blocking collectives share one
/// implementation with their deadline-aware variants.
inline constexpr double kNoTimeout = std::numeric_limits<double>::infinity();

/// steady_clock::now() + `seconds` (negative counts as 0), saturating at
/// time_point::max() — which means "no deadline" — for kNoTimeout and
/// for any finite span past the clock's range (a plain duration_cast
/// overflows there, e.g. 1e10 s at nanosecond ticks, and yields a time
/// in the past). NaN fails an EXACLIM_CHECK.
inline std::chrono::steady_clock::time_point TimePointAfter(double seconds) {
  using Clock = std::chrono::steady_clock;
  EXACLIM_CHECK(!std::isnan(seconds), "deadline or delay of NaN seconds");
  const Clock::time_point now = Clock::now();
  const Clock::duration headroom = Clock::time_point::max() - now;
  const double ticks =
      std::max(seconds, 0.0) * Clock::period::den / Clock::period::num;
  if (ticks >= static_cast<double>(headroom.count())) {
    return Clock::time_point::max();
  }
  // The double compare above can round up by a few ticks; this one is
  // exact.
  const Clock::duration span(static_cast<Clock::rep>(ticks));
  return span >= headroom ? Clock::time_point::max() : now + span;
}

/// Absolute deadline carried through a multi-message operation (one
/// collective, one consensus round): constructed once at entry, every
/// receive inside uses Remaining() so the whole operation — not each
/// message — is bounded. kNoTimeout (or any timeout past the clock's
/// range, see TimePointAfter) never expires.
class Deadline {
 public:
  explicit Deadline(double timeout_seconds)
      : end_(TimePointAfter(timeout_seconds)) {}

  /// Seconds left (>= 0), or kNoTimeout when unbounded.
  double Remaining() const {
    if (end_ == std::chrono::steady_clock::time_point::max()) {
      return kNoTimeout;
    }
    const double left = std::chrono::duration<double>(
                            end_ - std::chrono::steady_clock::now())
                            .count();
    return left > 0.0 ? left : 0.0;
  }
  bool Expired() const { return Remaining() <= 0.0; }

 private:
  std::chrono::steady_clock::time_point end_;
};

class SimWorld;

/// Outcome of a deadline-based receive.
enum class RecvStatus {
  kOk,        // message delivered
  kTimeout,   // deadline passed with no matching message
  kPeerDead,  // the requested source rank is dead and sent nothing
};

struct RecvResult {
  RecvStatus status = RecvStatus::kTimeout;
  int src = -1;
  std::vector<std::byte> payload;

  bool ok() const { return status == RecvStatus::kOk; }
};

/// Per-rank handle into a SimWorld: blocking tagged point-to-point
/// messaging, plus counters used by the control-plane experiments. All
/// collectives (comm/collectives.hpp) are built on these primitives, the
/// same way MPI collectives are built on sends — so the hierarchical
/// Horovod algorithms in hvd/ genuinely execute their message patterns.
///
/// Fault semantics (DESIGN §8): Send to a dead rank is silently dropped;
/// blocking Recv from a dead rank throws exaclim::Error (it can never
/// complete); RecvTimeout/TryRecv report kPeerDead instead. The
/// FaultInjector sites "comm.drop" / "comm.delay" act at delivery time.
class Communicator {
 public:
  Communicator(SimWorld& world, int rank) : world_(&world), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const;

  /// Buffered send: enqueues and returns immediately (MPI_Bsend-like).
  void Send(int dst, int tag, std::span<const std::byte> data);
  /// Blocking receive of a message matching (src, tag); src may be
  /// kAnySource. Returns the actual source rank; the payload must fit.
  int Recv(int src, int tag, std::span<std::byte> data);
  /// Receives a message of unknown size (returns payload; sets src).
  std::vector<std::byte> RecvAny(int src, int tag, int* actual_src = nullptr);

  /// Deadline-based receive: waits at most `timeout_seconds` for a
  /// matching message. Never blocks past the deadline, so callers can
  /// detect dead or unresponsive peers instead of hanging forever.
  RecvResult RecvTimeout(int src, int tag, double timeout_seconds);
  /// Non-blocking receive: returns immediately with whatever is queued.
  RecvResult TryRecv(int src, int tag);

  /// True when `rank` has been killed (SimWorld::KillRank or an armed
  /// "comm.kill.<rank>" fault site).
  bool PeerDead(int rank) const;

  /// Marks this rank dead in the world — the chaos-schedule stand-in for
  /// a process crash. Queued messages drop, later sends to it drop, and
  /// peers' timed receives report kPeerDead. The caller must unwind out
  /// of its rank function without touching the communicator again.
  void KillSelf();

  // Typed convenience wrappers.
  template <typename T>
  void SendT(int dst, int tag, std::span<const T> data) {
    Send(dst, tag, std::as_bytes(data));
  }
  template <typename T>
  int RecvT(int src, int tag, std::span<T> data) {
    return Recv(src, tag, std::as_writable_bytes(data));
  }
  template <typename T>
  void SendValue(int dst, int tag, const T& value) {
    SendT(dst, tag, std::span<const T>(&value, 1));
  }
  template <typename T>
  T RecvValue(int src, int tag, int* actual_src = nullptr) {
    T value{};
    const int s = RecvT(src, tag, std::span<T>(&value, 1));
    if (actual_src != nullptr) *actual_src = s;
    return value;
  }
  /// Timed scalar receive; `*value` is written only on kOk.
  template <typename T>
  RecvStatus RecvValueTimeout(int src, int tag, double timeout_seconds,
                              T* value, int* actual_src = nullptr) {
    RecvResult r = RecvTimeout(src, tag, timeout_seconds);
    if (!r.ok()) return r.status;
    EXACLIM_CHECK(r.payload.size() == sizeof(T),
                  "recv size mismatch: got " << r.payload.size()
                                             << " expected " << sizeof(T)
                                             << " (tag " << tag << ")");
    std::memcpy(value, r.payload.data(), sizeof(T));
    if (actual_src != nullptr) *actual_src = r.src;
    return RecvStatus::kOk;
  }

  std::int64_t messages_sent() const { return messages_sent_; }
  std::int64_t bytes_sent() const { return bytes_sent_; }
  std::int64_t messages_received() const { return messages_received_; }
  void ResetCounters() {
    messages_sent_ = bytes_sent_ = messages_received_ = 0;
  }

 private:
  SimWorld* world_;
  int rank_;
  std::int64_t messages_sent_ = 0;
  std::int64_t bytes_sent_ = 0;
  std::int64_t messages_received_ = 0;
};

/// An in-process "machine": `size` ranks, each a thread, exchanging
/// messages through per-destination mailboxes. The stand-in for MPI on
/// this substrate — collective *algorithms* run for real; only transport
/// time is left to netsim's analytic model.
///
/// Fault injection: SimWorld consults FaultInjector::Global() at two
/// points — per-message delivery ("comm.drop" / "comm.delay") and per
/// rank at Run entry ("comm.kill.<rank>", which marks the rank dead and
/// never runs its function, emulating a node lost at job launch).
class SimWorld {
 public:
  explicit SimWorld(int size);
  ~SimWorld();

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  int size() const { return size_; }

  /// Runs fn on every rank concurrently (one thread per rank) and joins.
  /// The first exception thrown by any rank is rethrown here after all
  /// ranks finish or the world is poisoned.
  void Run(const std::function<void(Communicator&)>& fn);

  /// Marks a rank dead mid-run: its queued messages are discarded, later
  /// sends to it are dropped, and peers waiting on it are woken so their
  /// timed receives can report kPeerDead. Safe to call from any rank's
  /// thread. Dead flags reset at the next Run.
  void KillRank(int rank);
  bool RankDead(int rank) const;

  /// Total messages/bytes across all ranks in the last Run.
  std::int64_t total_messages() const { return total_messages_; }
  std::int64_t total_bytes() const { return total_bytes_; }

 private:
  friend class Communicator;

  using Clock = std::chrono::steady_clock;

  struct Message {
    int src;
    int tag;
    std::vector<std::byte> payload;
    // Injected-delay support: the message exists in the mailbox but is
    // not matchable until this instant ("comm.delay" site).
    Clock::time_point deliver_after{};
  };

  struct Mailbox {
    Mutex mutex;
    CondVar cv;
    std::deque<Message> messages EXACLIM_GUARDED_BY(mutex);
    bool poisoned EXACLIM_GUARDED_BY(mutex) = false;
    // Readable without the mailbox lock (peers check it while holding
    // their own mailbox mutex).
    std::atomic<bool> dead{false};
  };

  void Deliver(int dst, Message message);
  /// Core matching loop; waits until `deadline` (time_point::max()
  /// waits forever). On kOk the message is moved into *out. Throws
  /// exaclim::Error when the world is poisoned while waiting.
  RecvStatus Take(int dst, int src, int tag, Clock::time_point deadline,
                  Message* out);

  int size_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::int64_t total_messages_ = 0;
  std::int64_t total_bytes_ = 0;
  // One flag per (src, dst) pair so a dropped send to a dead rank is
  // logged once, not once per message. Reset at each Run.
  std::vector<std::atomic<bool>> drop_logged_;
};

/// Maps flat ranks onto a (node, local rank) topology — Summit runs 6
/// ranks per node (one per GPU), Piz Daint 1 (Sec V-A3).
struct Topology {
  int ranks_per_node = 1;

  int NodeOf(int rank) const { return rank / ranks_per_node; }
  int LocalRank(int rank) const { return rank % ranks_per_node; }
  int GlobalRank(int node, int local) const {
    return node * ranks_per_node + local;
  }
  int NumNodes(int world_size) const {
    return (world_size + ranks_per_node - 1) / ranks_per_node;
  }
};

}  // namespace exaclim
