#include "comm/world.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"

namespace exaclim {

// ------------------------------------------------------- Communicator ---

int Communicator::size() const { return world_->size(); }

void Communicator::Send(int dst, int tag, std::span<const std::byte> data) {
  EXACLIM_CHECK(dst >= 0 && dst < world_->size(),
                "send to invalid rank " << dst);
  SimWorld::Message message;
  message.src = rank_;
  message.tag = tag;
  message.payload.assign(data.begin(), data.end());
  ++messages_sent_;
  bytes_sent_ += static_cast<std::int64_t>(data.size());
  world_->Deliver(dst, std::move(message));
}

int Communicator::Recv(int src, int tag, std::span<std::byte> data) {
  SimWorld::Message message;
  const RecvStatus status =
      world_->Take(rank_, src, tag, TimePointAfter(kNoTimeout), &message);
  EXACLIM_CHECK(status != RecvStatus::kPeerDead,
                "rank " << rank_ << ": blocking Recv from dead rank " << src
                        << " (tag " << tag << ") can never complete");
  EXACLIM_CHECK(message.payload.size() == data.size(),
                "recv size mismatch: got " << message.payload.size()
                                           << " expected " << data.size()
                                           << " (tag " << tag << ")");
  std::copy(message.payload.begin(), message.payload.end(), data.begin());
  ++messages_received_;
  return message.src;
}

std::vector<std::byte> Communicator::RecvAny(int src, int tag,
                                             int* actual_src) {
  SimWorld::Message message;
  const RecvStatus status =
      world_->Take(rank_, src, tag, TimePointAfter(kNoTimeout), &message);
  EXACLIM_CHECK(status != RecvStatus::kPeerDead,
                "rank " << rank_ << ": blocking RecvAny from dead rank "
                        << src << " (tag " << tag
                        << ") can never complete");
  if (actual_src != nullptr) *actual_src = message.src;
  ++messages_received_;
  return std::move(message.payload);
}

RecvResult Communicator::RecvTimeout(int src, int tag,
                                     double timeout_seconds) {
  SimWorld::Message message;
  RecvResult result;
  // kNoTimeout means "wait forever, but still report kPeerDead" — the
  // blocking collectives delegate here with it so one implementation
  // serves both the bounded and unbounded paths.
  result.status = world_->Take(rank_, src, tag,
                               TimePointAfter(timeout_seconds), &message);
  if (result.status == RecvStatus::kOk) {
    result.src = message.src;
    result.payload = std::move(message.payload);
    ++messages_received_;
  } else if (result.status == RecvStatus::kTimeout) {
    FaultCounterBump("fault.comm.recv_timeouts");
  } else {
    FaultCounterBump("fault.comm.recv_peer_dead");
  }
  return result;
}

RecvResult Communicator::TryRecv(int src, int tag) {
  return RecvTimeout(src, tag, 0.0);
}

bool Communicator::PeerDead(int rank) const {
  return world_->RankDead(rank);
}

void Communicator::KillSelf() { world_->KillRank(rank_); }

// ------------------------------------------------------------ SimWorld --

SimWorld::SimWorld(int size)
    : size_(size),
      drop_logged_(static_cast<std::size_t>(size) *
                   static_cast<std::size_t>(size)) {
  EXACLIM_CHECK(size_ >= 1, "world size must be >= 1");
  mailboxes_.reserve(static_cast<std::size_t>(size_));
  for (int i = 0; i < size_; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

SimWorld::~SimWorld() = default;

void SimWorld::Deliver(int dst, Message message) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  if (box.dead.load(std::memory_order_acquire)) {
    FaultCounterBump("fault.comm.send_to_dead");
    FaultCounterBump("comm.send.dropped_dead");
    // Log the first drop per (src, dst) pair; after that only the
    // counter moves, so a chatty retry loop can't flood the log.
    std::atomic<bool>& logged =
        drop_logged_[static_cast<std::size_t>(message.src) *
                         static_cast<std::size_t>(size_) +
                     static_cast<std::size_t>(dst)];
    if (!logged.exchange(true, std::memory_order_relaxed)) {
      EXACLIM_LOG(kWarn) << "comm: dropping send " << message.src << " -> "
                         << dst << " (tag " << message.tag
                         << "): destination rank is dead";
    }
    return;
  }
  // Fault points are consulted before any lock is taken: the injector
  // has its own (unranked) mutex and the metric sink takes registry
  // locks.
  FaultInjector& injector = FaultInjector::Global();
  if (injector.ArmedSiteCount() > 0) {
    if (injector.ShouldInject("comm.drop")) {
      FaultCounterBump("fault.comm.dropped_messages");
      return;
    }
    if (injector.ShouldInject("comm.delay")) {
      message.deliver_after =
          TimePointAfter(injector.DelaySeconds("comm.delay"));
      FaultCounterBump("fault.comm.delayed_messages");
    }
  }
  {
    MutexLock lock(box.mutex);
    box.messages.push_back(std::move(message));
  }
  box.cv.NotifyAll();
}

RecvStatus SimWorld::Take(int dst, int src, int tag,
                          Clock::time_point deadline, Message* out) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  MutexLock lock(box.mutex);
  for (;;) {
    const Clock::time_point now = Clock::now();
    // Scan for a matching, due message; track the earliest delayed match
    // so the wait below wakes exactly when it becomes deliverable.
    Clock::time_point earliest_due = Clock::time_point::max();
    for (auto it = box.messages.begin(); it != box.messages.end(); ++it) {
      if ((src == kAnySource || it->src == src) && it->tag == tag) {
        if (it->deliver_after <= now) {
          *out = std::move(*it);
          box.messages.erase(it);
          return RecvStatus::kOk;
        }
        earliest_due = std::min(earliest_due, it->deliver_after);
      }
    }
    if (box.poisoned) {
      throw Error("rank " + std::to_string(dst) +
                  ": world poisoned while waiting for message (src=" +
                  std::to_string(src) + ", tag=" + std::to_string(tag) + ")");
    }
    // A dead, message-less source can never satisfy the receive. (With
    // kAnySource the caller's deadline is the only exit.)
    if (src != kAnySource &&
        mailboxes_[static_cast<std::size_t>(src)]->dead.load(
            std::memory_order_acquire) &&
        earliest_due == Clock::time_point::max()) {
      return RecvStatus::kPeerDead;
    }
    Clock::time_point wake = std::min(deadline, earliest_due);
    if (wake == Clock::time_point::max()) {
      box.cv.Wait(lock);
      continue;
    }
    if (now >= deadline) return RecvStatus::kTimeout;
    const double wait_s =
        std::chrono::duration<double>(wake - now).count();
    box.cv.WaitFor(lock, wait_s);
  }
}

void SimWorld::KillRank(int rank) {
  EXACLIM_CHECK(rank >= 0 && rank < size_, "kill of invalid rank " << rank);
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(rank)];
  box.dead.store(true, std::memory_order_release);
  {
    MutexLock lock(box.mutex);
    box.messages.clear();
  }
  FaultCounterBump("fault.comm.rank_kills");
  // Wake every waiter in the world: peers blocked in timed receives on
  // this rank must re-check the dead flag and report kPeerDead now
  // rather than at their deadline.
  for (auto& other : mailboxes_) other->cv.NotifyAll();
}

bool SimWorld::RankDead(int rank) const {
  EXACLIM_CHECK(rank >= 0 && rank < size_,
                "liveness query for invalid rank " << rank);
  return mailboxes_[static_cast<std::size_t>(rank)]->dead.load(
      std::memory_order_acquire);
}

void SimWorld::Run(const std::function<void(Communicator&)>& fn) {
  // Reset poison/dead state from any previous run.
  for (auto& box : mailboxes_) {
    MutexLock lock(box->mutex);
    box->poisoned = false;
    box->dead.store(false, std::memory_order_release);
  }
  for (auto& flag : drop_logged_) {
    flag.store(false, std::memory_order_relaxed);
  }
  std::vector<Communicator> comms;
  comms.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) comms.emplace_back(*this, r);

  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(size_));
  threads.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([&, r] {
      // Launch-time rank death ("comm.kill.<rank>"): the rank is marked
      // dead and its function never runs — the surviving ranks must make
      // progress through their timeout/degradation paths.
      FaultInjector& injector = FaultInjector::Global();
      if (injector.ArmedSiteCount() > 0 &&
          injector.ShouldInject("comm.kill." + std::to_string(r))) {
        KillRank(r);
        return;
      }
      try {
        fn(comms[static_cast<std::size_t>(r)]);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        // Poison every mailbox so peers blocked in Recv abort instead of
        // deadlocking on a rank that died.
        for (auto& box : mailboxes_) {
          {
            MutexLock lock(box->mutex);
            box->poisoned = true;
          }
          box->cv.NotifyAll();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  total_messages_ = 0;
  total_bytes_ = 0;
  for (const Communicator& c : comms) {
    total_messages_ += c.messages_sent();
    total_bytes_ += c.bytes_sent();
  }
  // Drain any leftover messages (e.g. from an aborted run).
  for (auto& box : mailboxes_) {
    MutexLock lock(box->mutex);
    box->messages.clear();
  }
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace exaclim
