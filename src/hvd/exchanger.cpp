#include "hvd/exchanger.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "comm/collectives.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/workspace.hpp"
#include "obs/obs.hpp"

namespace exaclim {

const char* ToString(ReduceTransport t) {
  switch (t) {
    case ReduceTransport::kMpiRing: return "mpi-ring";
    case ReduceTransport::kMpiTree: return "mpi-tree";
    case ReduceTransport::kHybrid: return "hybrid";
  }
  return "?";
}

ExchangerOptions ExchangerOptions::FromEnv(ExchangerOptions base) {
  if (const char* v = std::getenv("EXACLIM_FUSION_BYTES")) {
    base.fusion_threshold_bytes =
        ParseEnvPositiveInt("EXACLIM_FUSION_BYTES", v);
  }
  if (const char* v = std::getenv("EXACLIM_WIRE")) {
    const std::string_view s(v);
    EXACLIM_CHECK(s == "fp16" || s == "fp32",
                  "EXACLIM_WIRE='" << s << "': expected fp16|fp32");
    base.wire_precision = s == "fp16" ? Precision::kFP16 : Precision::kFP32;
  }
  return base;
}

GradientExchanger::GradientExchanger(const ExchangerOptions& opts,
                                     std::uint64_t seed)
    : opts_(opts),
      control_(MakeControlPlane(opts.hierarchical_control,
                                opts.control_radix)),
      rng_(seed) {}

GradientExchanger::~GradientExchanger() {
  if (exchange_thread_.joinable()) {
    {
      MutexLock lock(mu_);
      shutdown_ = true;
    }
    cv_.NotifyAll();
    exchange_thread_.join();
  }
}

ElasticWorld& GradientExchanger::Identity(Communicator& comm) {
  // Built once and reused — the previous implementation constructed a
  // fresh ElasticWorld (liveness state, member vector) on every call.
  if (identity_ == nullptr || identity_comm_ != &comm ||
      identity_->view().size() != comm.size()) {
    identity_ = std::make_unique<ElasticWorld>(  // lint:allow(hot-path-alloc)
        comm, ElasticOptions{});
    identity_comm_ = &comm;
  }
  EXACLIM_CHECK(identity_->view().size() == comm.size() &&
                    identity_->view().my_index == comm.rank(),
                "identity elastic view out of sync with communicator: view "
                    << identity_->view().size() << "/"
                    << identity_->view().my_index << " vs comm "
                    << comm.size() << "/" << comm.rank());
  return *identity_;
}

void GradientExchanger::MaybeChaosKill(Communicator& comm) {
  // Chaos site "elastic.exchange.kill.<rank>": this rank dies right
  // after an order was agreed, so its peers starve *inside* the
  // allreduce rounds — the mid-collective failure mode of DESIGN §13.
  // Checked exactly once per step, after the first bucket's
  // negotiation, on the exchange thread.
  FaultInjector& injector = FaultInjector::Global();
  if (injector.ArmedSiteCount() > 0 &&
      injector.ShouldInject("elastic.exchange.kill." +
                            std::to_string(comm.rank()))) {
    comm.KillSelf();
    throw RankKilledError("rank " + std::to_string(comm.rank()) +
                          " killed mid-exchange by the chaos schedule");
  }
}

void GradientExchanger::Exchange(Communicator& comm,
                                 const std::vector<Param*>& params) {
  // One engine step at generation 0 over the full world with no
  // deadline, every tensor announced in index order.
  BeginStep(comm, params, /*elastic=*/nullptr, kNoTimeout);
  for (int i = 0; i < static_cast<int>(params.size()); ++i) {
    NotifyGradReady(i);
  }
  RequireCollective(comm, "Exchange", WaitAll());
}

CollectiveResult GradientExchanger::ReduceFusedBucket(
    Communicator& comm, const std::vector<Param*>& params,
    ElasticWorld& elastic, const RankGroup& group, std::span<const int> ids,
    int bucket_index, const Deadline& deadline) {
  std::int64_t elems = 0;
  for (const int id : ids) {
    elems += params[static_cast<std::size_t>(id)]->grad.NumElements();
  }
  if (elems == 0) return {};  // identical on every rank: shapes agree

  // Pooled fusion buffer (the exchange thread's slot): buckets run
  // strictly in order on that one thread.
  std::span<float> fusion(
      AcquireScratch(ScratchSlot::kExchangeFusion,
                     static_cast<std::size_t>(elems)),
      static_cast<std::size_t>(elems));
  std::size_t off = 0;
  for (const int id : ids) {
    const Tensor& g = params[static_cast<std::size_t>(id)]->grad;
    std::copy(g.Data().begin(), g.Data().end(), fusion.begin() + off);
    off += static_cast<std::size_t>(g.NumElements());
  }

  const bool fp16 = opts_.wire_precision == Precision::kFP16;
  if (fp16) RoundTripHalf(fusion);
  const WireFormat wire = fp16 ? WireFormat::kFP16 : WireFormat::kFP32;

  const ElasticView& view = elastic.view();
  const int tag = elastic.GenTag(BucketTag(bucket_index));
  CollectiveResult reduce_result;
  switch (opts_.transport) {
    case ReduceTransport::kMpiRing:
      reduce_result = TryGroupAllreduceRing(comm, group, fusion, deadline,
                                            tag, DeadScan::kGroup, wire);
      break;
    case ReduceTransport::kMpiTree:
      reduce_result = TryGroupAllreduceTree(comm, group, fusion, deadline,
                                            tag, DeadScan::kGroup, wire);
      break;
    case ReduceTransport::kHybrid:
      // The hybrid scheme needs whole nodes; a shrunk view falls back
      // to the bandwidth-optimal group ring over the survivors.
      if (view.generation == 0 && view.size() == comm.size()) {
        reduce_result = TryHybridAllreduce(comm, fusion, opts_.hybrid,
                                           deadline, tag, wire);
      } else {
        reduce_result = TryGroupAllreduceRing(comm, group, fusion, deadline,
                                              tag, DeadScan::kGroup, wire);
      }
      break;
  }
  if (!reduce_result.ok()) return reduce_result;

  const float inv_world =
      opts_.average ? 1.0f / static_cast<float>(view.size()) : 1.0f;
  for (auto& v : fusion) v *= inv_world;
  if (fp16) RoundTripHalf(fusion);

  off = 0;
  for (const int id : ids) {
    Tensor& g = params[static_cast<std::size_t>(id)]->grad;
    std::copy(fusion.begin() + off,
              fusion.begin() + off + static_cast<std::size_t>(g.NumElements()),
              g.Data().begin());
    off += static_cast<std::size_t>(g.NumElements());
  }
  return {};
}

// ---- exchange engine -------------------------------------------------------

void GradientExchanger::BeginStep(Communicator& comm,
                                  const std::vector<Param*>& params,
                                  ElasticWorld* elastic,
                                  double timeout_s) {
  EXACLIM_REENTRANCY_SCOPE(reentrancy_);
  EXACLIM_CHECK(!step_open_, "BeginStep while a step is already open");
  ElasticWorld& world = elastic != nullptr ? *elastic : Identity(comm);
  EXACLIM_CHECK(world.view().my_index >= 0,
                "rank " << comm.rank()
                        << " exchanging outside its elastic view");
  if (!exchange_thread_.joinable()) {
    exchange_thread_ = std::thread([this] { ExchangeThreadMain(); });
  }
  {
    MutexLock lock(mu_);
    EXACLIM_CHECK(!step_active_, "previous step still draining");
    comm_ = &comm;
    params_ = &params;
    elastic_ = &world;
    timeout_s_ = timeout_s;
    // TensorFlow's dynamic scheduler finishes backprop ops in a
    // timing-dependent order, different per rank — emulated by the
    // optional shuffle, keyed by (world rank, step); the step counter
    // only advances on success, so a post-rebuild retry replays it.
    if (opts_.shuffle_ready_order) {
      shuffle_rng_ = rng_.Fork(static_cast<std::uint64_t>(comm.rank()) *
                                   1000003u +
                               static_cast<std::uint64_t>(step_));
    }
    sched_order_.assign(params.size(), -1);
    sched_count_ = 0;
    buckets_.assign(params.size(), Bucket{});  // never more buckets than tensors
    buckets_closed_ = 0;
    pend_begin_ = 0;
    pend_bytes_ = 0;
    pend_elems_ = 0;
    emit_done_ = false;
    failed_ = false;
    result_ = {};
    exception_ = nullptr;
    step_bytes_ = 0;
    step_buffers_ = 0;
    step_active_ = true;  // hands the step to the exchange thread
  }
  cv_.NotifyAll();
  step_open_ = true;
}

void GradientExchanger::CloseBucketLocked() {
  Bucket& b = buckets_[static_cast<std::size_t>(buckets_closed_)];
  b.begin = pend_begin_;
  b.end = sched_count_;
  b.elems = pend_elems_;
  b.bytes = pend_bytes_;
  ++buckets_closed_;
  pend_begin_ = sched_count_;
  pend_bytes_ = 0;
  pend_elems_ = 0;
}

void GradientExchanger::NotifyGradReady(int param_index) {
  EXACLIM_CHECK(step_open_, "NotifyGradReady outside BeginStep/WaitAll");
  const std::int64_t t_elems =
      (*params_)[static_cast<std::size_t>(param_index)]->grad.NumElements();
  const std::int64_t t_bytes =
      t_elems * BytesPerElement(opts_.wire_precision);
  bool closed = false;
  {
    MutexLock lock(mu_);
    // The one bucket-closing rule (greedy fusion): a bucket always takes
    // at least one tensor, and closes when the next would push it past
    // the threshold.
    if (sched_count_ > pend_begin_ &&
        pend_bytes_ + t_bytes > opts_.fusion_threshold_bytes) {
      CloseBucketLocked();
      closed = true;
    }
    sched_order_[static_cast<std::size_t>(sched_count_)] = param_index;
    ++sched_count_;
    pend_bytes_ += t_bytes;
    pend_elems_ += t_elems;
  }
  if (closed) cv_.NotifyAll();
}

CollectiveResult GradientExchanger::WaitAll() {
  EXACLIM_REENTRANCY_SCOPE(reentrancy_);
  EXACLIM_CHECK(step_open_, "WaitAll without BeginStep");
  {
    MutexLock lock(mu_);
    if (sched_count_ > pend_begin_) CloseBucketLocked();
    emit_done_ = true;
    cv_.NotifyAll();
    while (step_active_) cv_.Wait(lock);
    // The exchange thread cleared step_active_ under mu_ after its last
    // write to the result fields; observing the clear under mu_ orders
    // every read below after those writes.
  }
  step_open_ = false;
  last_fused_buffers_ = step_buffers_;
  if (exception_ != nullptr) {
    const std::exception_ptr e = exception_;
    exception_ = nullptr;
    std::rethrow_exception(e);
  }
  if (!result_.ok()) return result_;
  if (auto* c = obs::CounterOrNull("exchange.bytes")) c->Add(step_bytes_);
  if (auto* c = obs::CounterOrNull("exchange.buffers")) c->Add(step_buffers_);
  ++step_;
  return {};
}

void GradientExchanger::ExchangeThreadMain() {
  for (;;) {
    {
      MutexLock lock(mu_);
      while (!shutdown_ && !step_active_) cv_.Wait(lock);
      if (shutdown_) return;
    }
    RunStep();
    {
      MutexLock lock(mu_);
      step_active_ = false;
    }
    cv_.NotifyAll();
  }
}

void GradientExchanger::RunStep() {
  EXACLIM_TRACE_SPAN("exchange.allreduce", "hvd");
  Communicator& comm = *comm_;
  ElasticWorld& elastic = *elastic_;
  const ElasticView& view = elastic.view();
  const RankGroup group(view.members, comm.rank());
  int next_bucket = 0;
  bool chaos_checked = false;
  for (;;) {
    Bucket b;
    {
      MutexLock lock(mu_);
      while (buckets_closed_ <= next_bucket && !emit_done_) cv_.Wait(lock);
      if (next_bucket >= buckets_closed_) break;  // drained & emission done
      b = buckets_[static_cast<std::size_t>(next_bucket)];
    }
    // After the first failure the step is doomed: drain the remaining
    // buckets without touching the communicator so WaitAll can return
    // the first result and the trainer can roll the step back.
    if (!failed_) {
      // One deadline per bucket, armed when this thread takes it: the
      // time backward spent producing the bucket is not exchange time.
      const Deadline deadline(timeout_s_);
      try {
        EXACLIM_TRACE_SPAN("exchange.bucket", "hvd");
        // Entries [b.begin, b.end) were written under mu_ before the
        // bucket close we just observed under mu_, and NotifyGradReady
        // never writes them again — safe to read and shuffle in place.
        const std::span<int> ids(sched_order_.data() + b.begin,
                                 static_cast<std::size_t>(b.end - b.begin));
        if (opts_.shuffle_ready_order) {
          std::shuffle(ids.begin(), ids.end(), shuffle_rng_.engine());
        }
        // Per-bucket negotiation reuses the control tag window: safe
        // because buckets run strictly sequentially on one thread and
        // every peer orders its buckets identically (see
        // hvd/control_plane.hpp).
        CollectiveResult r = control_->TryNegotiateOrder(
            comm, group, ids, deadline, elastic.GenTag(0), &negotiated_);
        if (r.ok()) {
          EXACLIM_CHECK(negotiated_.size() == ids.size(),
                        "negotiated bucket order has wrong tensor count");
          if (!chaos_checked) {
            chaos_checked = true;
            MaybeChaosKill(comm);
          }
          r = ReduceFusedBucket(comm, *params_, elastic, group, negotiated_,
                                next_bucket, deadline);
        }
        if (!r.ok()) {
          result_ = r;
          failed_ = true;
        } else {
          step_bytes_ += b.bytes;
          ++step_buffers_;
        }
      } catch (...) {
        exception_ = std::current_exception();
        failed_ = true;
      }
    }
    ++next_bucket;
  }
}

// ---- GradReadyRecorder -----------------------------------------------------

void GradReadyRecorder::Bind(const std::vector<Param*>& params) {
  if (params_ == &params && index_of_.size() == params.size()) return;
  params_ = &params;
  index_of_.clear();
  layer_indices_.clear();
  index_of_.reserve(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    index_of_.emplace(params[i], static_cast<int>(i));
  }
  seen_.assign(params.size(), 0);
  order_.assign(params.size(), -1);
  count_ = 0;
  sink_ = nullptr;
}

void GradReadyRecorder::BeginStep(GradientExchanger* sink) {
  EXACLIM_CHECK(params_ != nullptr, "GradReadyRecorder used before Bind");
  seen_.assign(params_->size(), 0);
  order_.assign(params_->size(), -1);
  count_ = 0;
  sink_ = sink;
}

void GradReadyRecorder::OnGradsReady(Layer& layer) {
  auto it = layer_indices_.find(&layer);
  if (it == layer_indices_.end()) {
    // First sighting of this layer: snapshot its param indices
    // (Layer::Params allocates a fresh vector — once per layer, after
    // which steady-state notifications are heap-free).
    const std::vector<Param*> ps = layer.Params();
    std::vector<int> ids(ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const auto idx = index_of_.find(ps[i]);
      EXACLIM_CHECK(idx != index_of_.end(),
                    "layer '" << layer.name()
                              << "' announced a param outside the bound "
                                 "param list");
      ids[i] = idx->second;
    }
    it = layer_indices_.emplace(&layer, std::move(ids)).first;
  }
  for (const int id : it->second) Emit(id);
}

void GradReadyRecorder::FlushRemaining() {
  EXACLIM_CHECK(params_ != nullptr, "GradReadyRecorder used before Bind");
  const int n = static_cast<int>(params_->size());
  for (int i = 0; i < n; ++i) Emit(i);
}

void GradReadyRecorder::Emit(int param_index) {
  if (seen_[static_cast<std::size_t>(param_index)] != 0) return;
  seen_[static_cast<std::size_t>(param_index)] = 1;
  order_[count_] = param_index;
  ++count_;
  if (sink_ != nullptr) sink_->NotifyGradReady(param_index);
}

}  // namespace exaclim
