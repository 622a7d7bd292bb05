#pragma once

#include <cstdint>
#include <exception>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "comm/elastic.hpp"
#include "comm/world.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "hvd/control_plane.hpp"
#include "hvd/hybrid.hpp"
#include "nn/layer.hpp"
#include "tensor/cast.hpp"

namespace exaclim {

/// Which transport the gradient all-reduce uses.
enum class ReduceTransport {
  kMpiRing,   // flat ring over all ranks
  kMpiTree,   // flat tree over all ranks
  kHybrid,    // the paper's NCCL-intra-node + sharded-MPI scheme
};

const char* ToString(ReduceTransport t);

/// Bucket tag layout (DESIGN §14). Every fused buffer's collective runs
/// in its own tag window so concurrent in-flight buckets can never
/// cross-match; the window index wraps inside a *bounded* field so the
/// largest bucket tag stays below the elastic generation stride — the
/// previous open-ended layout (20000 + i*700) crossed into generation
/// N+1's namespace at ~1400 buckets, letting a stale generation-N bucket
/// message alias a post-rebuild control or collective tag.
///
///   [ 0 .. kBucketTagBase )                   control/consensus/resync
///   [ kBucketTagBase .. kGenTagStride )       bucket windows, stride
///                                             kBucketTagStride each
///
/// Wrap-around reuse of a window is safe for the same reason step-count
/// tag reuse is: each rank issues its buckets strictly in order and the
/// mailbox matches per (src, tag) FIFO, so two uses of one window are
/// never concurrently in flight on an edge.
inline constexpr int kBucketTagBase = 40000;
/// Tags a single bucket's collective may touch: the group ring uses
/// tag+k and tag+n+k (2n tags), the hybrid offsets by up to 500+shard.
inline constexpr int kBucketTagStride = 700;
inline constexpr int kBucketTagSlots =
    (kGenTagStride - kBucketTagBase) / kBucketTagStride;
static_assert(kBucketTagBase + kBucketTagSlots * kBucketTagStride <=
                  kGenTagStride,
              "bucket tag field must fit inside one generation's salt "
              "budget — a bucket tag crossing kGenTagStride would alias "
              "the next generation's namespace");
static_assert(kBucketTagSlots >= 1000,
              "bucket tag field unexpectedly small");

/// Collective tag (pre-generation-salt) of fused buffer `bucket_index`.
inline int BucketTag(int bucket_index) {
  return kBucketTagBase + (bucket_index % kBucketTagSlots) * kBucketTagStride;
}

/// Data-parallel gradient aggregation in the style of Horovod (Sec V-A3):
/// fuse consecutive tensors into buffers up to a byte threshold
/// (Horovod's tensor fusion, which gradient lag improves), agree on each
/// buffer once through the paper's radix-kControlRadix hierarchical
/// control plane (emulating TensorFlow's nondeterministic per-rank
/// scheduling by shuffling the order each rank submits), and run one
/// all-reduce per fused buffer, averaging across ranks. The agreed
/// buckets form a plan that later steps reuse without control messages
/// (see BeginStep).
struct ExchangerOptions {
  ReduceTransport transport = ReduceTransport::kHybrid;
  HybridAllreduceOptions hybrid{};
  /// Fuse consecutive tensors into buffers of up to this many bytes
  /// (>= 1).
  std::int64_t fusion_threshold_bytes = 4 << 20;
  /// FP16 wire format: gradients are rounded through binary16 and move
  /// across ranks as packed 2-byte words (WireFormat::kFP16), halving
  /// the bytes on the wire; the reduction itself accumulates in FP32
  /// (Tensor Core FMA / NCCL fp32-accumulation style).
  Precision wire_precision = Precision::kFP32;
  /// Emulate TensorFlow's dynamic scheduler: shuffle the order in which
  /// each rank submits a bucket's tensors to the control plane when the
  /// bucket is negotiated. Only the control messages move: the fused
  /// layout is the emission order either way, so results do not depend
  /// on this flag or on message arrival, at any world size.
  bool shuffle_ready_order = true;
};

class GradientExchanger {
 public:
  /// Throws when fusion_threshold_bytes < 1 or the hybrid transport's
  /// options fail CheckHybridOptions.
  GradientExchanger(const ExchangerOptions& opts, std::uint64_t seed);
  ~GradientExchanger();

  /// Collective: every rank calls with its (identically shaped) params.
  /// On return, each param's grad holds the rank-averaged gradient,
  /// bit-identical on every rank. Drives one blocking engine step over
  /// the full world (BeginStep with no deadline, every tensor announced
  /// in index order, WaitAll) and checks that it succeeded.
  void Exchange(Communicator& comm, const std::vector<Param*>& params);

  /// ---- The exchange engine (DESIGN §14) ------------------------------
  /// BeginStep arms a step: NotifyGradReady calls (from the backward
  /// pass, via GradReadyRecorder) append tensors to the emission order
  /// and greedily close fusion buckets. A dedicated exchange thread,
  /// started at the first BeginStep, reduces each closed bucket in order
  /// while backward keeps computing. WaitAll closes the final bucket,
  /// returns once the step is drained, and returns the first failure
  /// (kOk when every bucket reduced). `elastic == nullptr` reduces over
  /// the whole world at generation 0 (RankGroup::World, tag salt 0).
  /// `timeout_s` (kNoTimeout for none) bounds each bucket's negotiation
  /// + reduction, counted from the moment the exchange thread takes the
  /// bucket — waiting for backward to close a bucket never eats into
  /// it. On failure the partial step must be
  /// discarded by the caller (gradients may hold partially averaged
  /// data) and the step counter is NOT advanced, so the retried step
  /// reproduces the same shuffle. Every transport reduces over the
  /// view's members, whatever their number; the hybrid places them on
  /// nodes by world rank, so a shrunk view leaves ragged nodes.
  ///
  /// Bucket plan: a bucket negotiates through the control plane only
  /// when the plan is stale — the first step, a new elastic generation
  /// or view, the step after a failed one, or an emission slice (the
  /// bucket's tensors, in emission order) that differs from the one the
  /// plan agreed. Otherwise it reduces at once, with no control
  /// messages. The fused layout is the emission slice in both cases; a
  /// negotiation only checks that every rank holds the same tensors.
  /// Invariant: every rank emits the same order (the grad-ready order
  /// is structural, pinned by the LayerOrder goldens, and bucket
  /// boundaries already depend on it), so every rank makes the same
  /// negotiate-or-reuse choice.
  void BeginStep(Communicator& comm, const std::vector<Param*>& params,
                 ElasticWorld* elastic, double timeout_s);
  /// Announces that `param_index`'s gradient is final for this step.
  /// Called on the trainer thread, between BeginStep and WaitAll.
  void NotifyGradReady(int param_index);
  /// Barrier before optimizer.Step: rethrows a RankKilledError raised by
  /// the chaos schedule on the exchange thread on the calling thread.
  CollectiveResult WaitAll();

  /// Fused buffers formed in the last step (diagnostic).
  std::int64_t last_fused_buffers() const { return last_fused_buffers_; }

  const ExchangerOptions& options() const { return opts_; }

 private:
  /// One fused buffer: the half-open range [begin, end) of the step's
  /// emission order.
  struct Bucket {
    int begin = 0;
    int end = 0;
    std::int64_t elems = 0;
    std::int64_t bytes = 0;
  };

  /// Packs `ids` (param indices) into the fusion scratch, reduces the
  /// buffer in bucket_index's tag window (shifted by `tag_salt`, the
  /// generation's namespace), averages and scatters back.
  CollectiveResult ReduceFusedBucket(Communicator& comm,
                                     const std::vector<Param*>& params,
                                     int tag_salt, const RankGroup& group,
                                     std::span<const int> ids,
                                     int bucket_index,
                                     const Deadline& deadline);

  /// Fires the "elastic.exchange.kill.<rank>" chaos site (at most once
  /// per step, right before the first bucket reduces).
  void MaybeChaosKill(Communicator& comm);

  /// True when the plan's bucket `bucket_index` is `b`'s emission slice.
  bool PlanCovers(int bucket_index, const Bucket& b) const;
  /// Negotiates bucket `b` (emission slice `ids`), submitting the ids in
  /// shuffled order under shuffle_ready_order, checks that the agreed
  /// order holds the same tensors, and records `b` in the plan.
  CollectiveResult NegotiateBucket(Communicator& comm, const RankGroup& group,
                                   int tag_salt, std::span<const int> ids,
                                   int bucket_index, const Bucket& b,
                                   const Deadline& deadline);

  void ExchangeThreadMain();
  /// Runs one armed step on the exchange thread: negotiate (when the
  /// plan is stale) + reduce each closed bucket in order, latch the
  /// first failure, drain the rest.
  void RunStep();
  void CloseBucketLocked();

  ExchangerOptions opts_;
  HierarchicalControlPlane control_{kControlRadix};
  Rng rng_;
  std::int64_t last_fused_buffers_ = 0;
  int step_ = 0;
  // One exchanger per rank by design; Debug builds trap two threads
  // driving the same instance (which would corrupt the step state and
  // counter without any TSan-visible lock).
  ReentrancyGuard reentrancy_;

  // ---- engine state ----
  // Hand-off discipline: the trainer thread writes sched_order_ /
  // bucket bookkeeping under mu_ (NotifyGradReady); the exchange thread
  // copies closed buckets out under mu_ and touches comm/grads only for
  // tensors already announced, so the two threads never race on a
  // tensor. Result fields are written by the exchange
  // thread before it clears step_active_ under mu_ and read by WaitAll
  // after observing step_active_ == false — ordered by the mutex.
  Mutex mu_;
  CondVar cv_;
  std::thread exchange_thread_;  // started at the first BeginStep
  bool shutdown_ = false;        // guarded by mu_
  bool step_active_ = false;     // guarded by mu_
  bool emit_done_ = false;       // guarded by mu_
  bool step_open_ = false;       // trainer thread only
  Communicator* comm_ = nullptr;
  const std::vector<Param*>* params_ = nullptr;
  ElasticWorld* elastic_ = nullptr;  // nullptr: the whole world, gen 0
  double timeout_s_ = kNoTimeout;  // bounds each bucket (see BeginStep)
  Rng shuffle_rng_{0};            // this step's readiness-shuffle stream
  std::vector<int> sched_order_;  // emission order; writes guarded by mu_
  int sched_count_ = 0;           // guarded by mu_
  std::vector<Bucket> buckets_;   // closed buckets; guarded by mu_
  int buckets_closed_ = 0;        // guarded by mu_
  int pend_begin_ = 0;            // open bucket start; guarded by mu_
  std::int64_t pend_bytes_ = 0;   // guarded by mu_
  std::int64_t pend_elems_ = 0;   // guarded by mu_
  // Bucket plan (see BeginStep); exchange thread only.
  bool plan_valid_ = false;           // cleared by a failed step
  std::vector<Bucket> plan_buckets_;  // agreed buckets, by bucket index
  std::vector<int> plan_order_;       // their emission slices, by position
  std::vector<int> plan_members_;     // world ranks it was agreed over
  int plan_salt_ = 0;                 // and their generation's tag salt
  std::vector<int> submit_;           // a bucket's ids as submitted
  std::vector<int> negotiated_;       // a bucket's agreed order
  CollectiveResult result_;       // first failure of the armed step
  bool failed_ = false;
  std::exception_ptr exception_;
  std::int64_t step_bytes_ = 0;
  std::int64_t step_buffers_ = 0;
};

/// Bridges Layer grad-ready hooks to the exchanger: the trainer installs
/// it as the model's GradReadyListener for the backward pass. It maps
/// each announcing layer to its param indices (cached after the first
/// step — steady-state notifications do zero heap work), dedups, and
/// forwards newly ready indices to the exchanger, whose buckets follow
/// this emission order. FlushRemaining emits params no hook announced
/// (models without instrumented containers), so every param always
/// exchanges exactly once per step.
class GradReadyRecorder : public GradReadyListener {
 public:
  /// Binds the flat param list the indices refer to (cheap when
  /// unchanged; rebinding clears the layer cache).
  void Bind(const std::vector<Param*>& params);
  /// Starts a step. `sink` receives NotifyGradReady(index) per newly
  /// ready param; nullptr records the order only (for order()).
  void BeginStep(GradientExchanger* sink);
  void OnGradsReady(Layer& layer) override;
  /// Emits every param not announced by a hook, in index order.
  void FlushRemaining();
  /// Emission order of the current/last step. Nothing in the training
  /// path reads it; it is the probe the LayerOrder goldens pin.
  std::span<const int> order() const {
    return std::span<const int>(order_.data(), count_);
  }

 private:
  void Emit(int param_index);

  const std::vector<Param*>* params_ = nullptr;
  std::unordered_map<const Param*, int> index_of_;
  std::unordered_map<const Layer*, std::vector<int>> layer_indices_;
  std::vector<char> seen_;
  std::vector<int> order_;
  std::size_t count_ = 0;
  GradientExchanger* sink_ = nullptr;
};

}  // namespace exaclim
