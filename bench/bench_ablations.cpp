// Ablation benches for the design choices DESIGN.md calls out:
//  1. Sec V-B5 Tiramisu redesign — growth 16 / 3x3 / deep blocks vs the
//     paper's growth 32 / 5x5 / halved blocks: FLOP counts, roofline
//     compute intensity, measured CPU step time of downscaled versions,
//     and real convergence quality at equal step budget.
//  2. Sec V-B5 DeepLabv3+ decoder — full-resolution deconv decoder vs the
//     standard quarter-resolution head: cost and mask quality.
//  3. Sec V-B2 LARC — stability at aggressive learning rates.
//  4. Sec V-B4 gradient lag — throughput at scale and convergence parity.
//  5. Horovod tensor fusion — buffer count vs fusion threshold, plus the
//     event-driven overlap simulation of step time vs bucket size.
//  6. Sec V-B3 multi-channel input — 4 channels (Piz Daint mode) vs all
//     16 (Summit mode), real training.
//  7. Sec V-B2 LARC vs LARS — clip mode removes the warm-up requirement.

#include <chrono>
#include <cstdio>
#include <vector>

#include "netsim/event_engine.hpp"
#include "netsim/scale.hpp"
#include "stats/stats.hpp"
#include "train/trainer.hpp"

namespace exaclim {
namespace {

using Clock = std::chrono::steady_clock;

double FinalSmoothedLoss(const TrainRunResult& r) {
  return MovingAverage(r.loss_history, 8).back();
}

}  // namespace

int Main() {
  ClimateDataset::Options d;
  d.num_samples = 50;
  d.generator.height = 32;
  d.generator.width = 32;
  d.channels = {kTMQ, kU850, kV850, kPSL};
  const ClimateDataset dataset(d);

  // ---------------------------------------------------- 1. Tiramisu ----
  std::printf("Ablation 1 — Sec V-B5 Tiramisu redesign (growth 32 / 5x5)\n");
  {
    const ArchSpec original =
        BuildTiramisuSpec(Tiramisu::Config::Original(), 768, 1152);
    const ArchSpec modified = PaperTiramisuSpec(16);
    const auto c_orig = AnalyzeTraining(original, Precision::kFP16, 2);
    const auto c_mod = AnalyzeTraining(modified, Precision::kFP16, 2);
    std::printf(
        "  original (g=16, 3x3, deep):   %.3f TF/sample, intensity %.1f "
        "FLOP/B, %lld convs\n",
        c_orig.ConvFlopsPerSample() / 1e12,
        c_orig.TotalFlops() / c_orig.TotalBytes(),
        static_cast<long long>(original.CountOps(OpSpec::Kind::kConv)));
    std::printf(
        "  modified (g=32, 5x5, halved): %.3f TF/sample, intensity %.1f "
        "FLOP/B, %lld convs\n",
        c_mod.ConvFlopsPerSample() / 1e12,
        c_mod.TotalFlops() / c_mod.TotalBytes(),
        static_cast<long long>(modified.CountOps(OpSpec::Kind::kConv)));
    std::printf(
        "  -> the redesign raises arithmetic intensity %.1fx (the paper's "
        "rationale: growth-16 convs were memory-limited)\n",
        (c_mod.TotalFlops() / c_mod.TotalBytes()) /
            (c_orig.TotalFlops() / c_orig.TotalBytes()));

    // Roofline samples/s on V100 FP16 (where the original suffers most).
    const auto perf_orig = AnalyzeSingleGpu(original, MachineModel::Summit(),
                                            Precision::kFP16, 2);
    const auto perf_mod = AnalyzeSingleGpu(modified, MachineModel::Summit(),
                                           Precision::kFP16, 2);
    std::printf(
        "  roofline FP16 efficiency: original %.1f%% of peak, modified "
        "%.1f%% of peak\n",
        perf_orig.fraction_of_peak * 100, perf_mod.fraction_of_peak * 100);
  }
  {
    // Real convergence at equal step budget (paper: the new network
    // "trained faster and yielded a better model").
    auto run = [&](Tiramisu::Config cfg, const char* tag) {
      TrainerOptions o;
      o.arch = TrainerOptions::Arch::kTiramisu;
      cfg.in_channels = 4;
      o.tiramisu = cfg;
      o.learning_rate = 2e-3f;
      const auto start = Clock::now();
      const auto result = RunDistributedTraining(o, dataset, 1, 40, 16);
      const double secs =
          std::chrono::duration<double>(Clock::now() - start).count();
      std::printf("  real downscaled run (%s): final loss %.4f, %.2f "
                  "s/step on this CPU\n",
                  tag, FinalSmoothedLoss(result), secs / 40);
    };
    Tiramisu::Config orig = Tiramisu::Config::Downscaled(4);
    orig.growth_rate = 2;
    orig.kernel = 3;
    orig.down_layers = {2, 2};
    orig.bottleneck_layers = 2;
    Tiramisu::Config mod = Tiramisu::Config::Downscaled(4);
    mod.growth_rate = 4;
    mod.kernel = 5;
    mod.down_layers = {1, 1};
    mod.bottleneck_layers = 1;
    run(orig, "orig-style");
    run(mod, "modified-style");
  }

  // ------------------------------------------------------ 2. Decoder ---
  std::printf("\nAblation 2 — DeepLabv3+ decoder resolution (Sec V-B5)\n");
  {
    auto full_cfg = DeepLabV3Plus::Config::Paper(16);
    auto quarter_cfg = full_cfg;
    quarter_cfg.full_res_decoder = false;
    const auto full =
        AnalyzeTraining(BuildDeepLabSpec(full_cfg, 768, 1152),
                        Precision::kFP32, 1);
    const auto quarter =
        AnalyzeTraining(BuildDeepLabSpec(quarter_cfg, 768, 1152),
                        Precision::kFP32, 1);
    std::printf(
        "  full-res decoder:    %.3f TF/sample\n  quarter-res decoder: "
        "%.3f TF/sample (the standard compromise)\n  -> full resolution "
        "costs %.1f%% more compute, affordable on Summit\n",
        full.ConvFlopsPerSample() / 1e12,
        quarter.ConvFlopsPerSample() / 1e12,
        (full.ConvFlopsPerSample() / quarter.ConvFlopsPerSample() - 1) *
            100);
  }
  {
    // Eventful 48x48 data so the minority classes are learnable within
    // the step budget.
    ClimateDataset::Options dd = d;
    dd.generator.height = 48;
    dd.generator.width = 48;
    dd.generator.mean_cyclones = 2.0;
    dd.generator.mean_rivers = 1.8;
    const ClimateDataset decoder_data(dd);
    auto run = [&](bool full_res) {
      TrainerOptions o;
      o.arch = TrainerOptions::Arch::kDeepLab;
      o.deeplab = DeepLabV3Plus::Config::Downscaled(4);
      o.deeplab.full_res_decoder = full_res;
      o.learning_rate = 3e-3f;
      o.local_batch = 2;
      const auto freq = decoder_data.MeasureFrequencies(16);
      RankTrainer trainer(
          o, MakeClassWeights(freq, WeightingScheme::kInverseSqrt), 0);
      Rng rng(55);
      for (int s = 0; s < 400; ++s) {
        std::vector<std::int64_t> idx(2);
        for (auto& i : idx) {
          i = rng.Int(0, decoder_data.size(DatasetSplit::kTrain) - 1);
        }
        (void)trainer.Step(
            decoder_data.MakeBatch(DatasetSplit::kTrain, idx));
      }
      return trainer.Evaluate(decoder_data, DatasetSplit::kValidation, 5);
    };
    const auto full_cm = run(true);
    const auto quarter_cm = run(false);
    std::printf(
        "  real downscaled training: full-res mIoU %.1f%%, quarter-res "
        "mIoU %.1f%% (paper: full res needed for irregular fine-scale "
        "masks)\n",
        full_cm.MeanIoU() * 100, quarter_cm.MeanIoU() * 100);
  }

  // --------------------------------------------------------- 3. LARC ---
  std::printf("\nAblation 3 — LARC at aggressive learning rates (Sec V-B2)\n");
  for (const bool use_larc : {false, true}) {
    TrainerOptions o;
    o.arch = TrainerOptions::Arch::kTiramisu;
    o.tiramisu = Tiramisu::Config::Downscaled(4);
    o.optimizer = TrainerOptions::Opt::kSGD;
    o.learning_rate = 0.5f;  // deliberately large-batch-style LR
    o.use_larc = use_larc;
    o.larc.trust_coefficient = 5e-3f;
    const auto result = RunDistributedTraining(o, dataset, 1, 30, 16);
    bool finite = true;
    for (const double l : result.loss_history) {
      finite = finite && std::isfinite(l);
    }
    std::printf("  lr=0.5 %-9s: final loss %s, all steps finite: %s\n",
                use_larc ? "with LARC" : "plain SGD",
                finite ? std::to_string(FinalSmoothedLoss(result)).c_str()
                       : "diverged",
                finite ? "yes" : "NO");
  }

  // ---------------------------------------------------------- 4. Lag ---
  std::printf("\nAblation 4 — gradient lag (Sec V-B4)\n");
  {
    ScaleOptions o;
    o.machine = MachineModel::Summit();
    o.spec = PaperDeepLabSpec(16);
    o.precision = Precision::kFP16;
    o.local_batch = 2;
    o.anchor_samples_per_sec = 2.67;
    o.anchor_tf_per_sample = 14.41;
    for (const int lag : {0, 1}) {
      o.lag = lag;
      const auto p = ScaleSimulator(o).Simulate(27360);
      std::printf(
          "  lag %d at 27360 GPUs: %.0f images/s, %.1f PF/s, exposed comm "
          "%.1f ms/step\n",
          lag, p.images_per_sec, p.pflops_sustained,
          p.exposed_comm_seconds * 1e3);
    }
    for (const int lag : {0, 1}) {
      TrainerOptions t;
      t.arch = TrainerOptions::Arch::kTiramisu;
      t.tiramisu = Tiramisu::Config::Downscaled(4);
      t.learning_rate = 2e-3f;
      t.lag = lag;
      const auto result = RunDistributedTraining(t, dataset, 2, 30, 16);
      std::printf("  real convergence, lag %d: final loss %.4f\n", lag,
                  FinalSmoothedLoss(result));
    }
    std::printf(
        "  (paper: lag 1 gives the best throughput; lag 0 and lag 1 loss "
        "curves nearly identical)\n");
  }

  // ------------------------------------------------------- 5. Fusion ---
  std::printf("\nAblation 5 — Horovod tensor fusion\n");
  {
    SimWorld world(2);
    for (const std::int64_t threshold :
         std::vector<std::int64_t>{1, 64 << 10, 4 << 20}) {
      std::int64_t buffers = 0;
      world.Run([&](Communicator& comm) {
        Rng rng(9);
        Tiramisu model(Tiramisu::Config::Downscaled(4), rng);
        auto params = model.Params();
        for (Param* p : params) p->grad.Fill(0.5f);
        ExchangerOptions eo;
        eo.fusion_threshold_bytes = threshold;
        GradientExchanger exchanger(eo, 4);
        exchanger.Exchange(comm, params);
        if (comm.rank() == 0) {
          buffers = exchanger.last_fused_buffers();
        }
      });
      std::printf(
          "  threshold %8lld B: %3lld all-reduce launches for %zu "
          "tensors\n",
          static_cast<long long>(threshold),
          static_cast<long long>(buffers),
          [] {
            Rng rng(9);
            Tiramisu m(Tiramisu::Config::Downscaled(4), rng);
            return m.Params().size();
          }());
    }
    std::printf(
        "  (fusion batches small gradients into few launches — the effect "
        "gradient lag amplifies at scale)\n");
  }
  {
    // Event-driven overlap: step time vs fusion bucket size for the
    // full-size DeepLab gradient on Summit's fabric.
    std::printf("  event-driven overlap simulation (DeepLabv3+ FP32, "
                "Summit inter-node path):\n");
    const ArchSpec spec = PaperDeepLabSpec(16);
    for (const std::int64_t fusion :
         std::vector<std::int64_t>{256 << 10, 4 << 20, 64 << 20}) {
      for (const int lag : {0, 1}) {
        const auto config = BuildOverlapConfig(
            spec, MachineModel::Summit(), Precision::kFP32, 1.149, fusion,
            lag);
        const auto r = SimulateOverlap(config);
        std::printf(
            "    fusion %5.1f MB, lag %d: %zu buckets, step %.1f ms, "
            "exposed comm %.2f ms\n",
            fusion / 1048576.0, lag, config.bucket_bytes.size(),
            r.steady_step_seconds * 1e3, r.exposed_comm_seconds * 1e3);
      }
    }
  }

  // ----------------------------------------------------- 6. Channels ---
  std::printf("\nAblation 6 — input channels (Sec V-B3: 4 on Piz Daint vs "
              "all 16 on Summit)\n");
  {
    ClimateDataset::Options dd = d;
    dd.generator.height = 48;
    dd.generator.width = 48;
    dd.generator.mean_cyclones = 2.0;
    dd.generator.mean_rivers = 1.8;
    struct ChannelCase {
      const char* label;
      std::vector<int> channels;  // empty = all 16
    };
    for (const ChannelCase& cc :
         {ChannelCase{"4 (TMQ,U850,V850,PSL)",
                      {kTMQ, kU850, kV850, kPSL}},
          ChannelCase{"4 (UBOT,VBOT,PRECT,T500)",
                      {kUBOT, kVBOT, kPRECT, kT500}},
          ChannelCase{"16 (all)", {}}}) {
      ClimateDataset::Options cd = dd;
      cd.channels = cc.channels;
      const ClimateDataset channel_data(cd);
      TrainerOptions o;
      o.arch = TrainerOptions::Arch::kTiramisu;
      o.tiramisu = Tiramisu::Config::Downscaled(
          channel_data.num_channels());
      o.learning_rate = 2e-3f;
      o.local_batch = 2;
      const auto freq = channel_data.MeasureFrequencies(16);
      RankTrainer trainer(
          o, MakeClassWeights(freq, WeightingScheme::kInverseSqrt), 0);
      Rng rng(88);
      for (int s = 0; s < 180; ++s) {
        std::vector<std::int64_t> idx(2);
        for (auto& i : idx) {
          i = rng.Int(0, channel_data.size(DatasetSplit::kTrain) - 1);
        }
        (void)trainer.Step(
            channel_data.MakeBatch(DatasetSplit::kTrain, idx));
      }
      const auto cm =
          trainer.Evaluate(channel_data, DatasetSplit::kValidation, 6);
      std::printf("  %-26s mean IoU %.1f%% (AR %.1f%%, TC %.1f%%)\n",
                  cc.label, cm.MeanIoU() * 100, cm.IoU(1) * 100,
                  cm.IoU(2) * 100);
    }
    std::printf(
        "  (paper: moving from 4 to 16 channels \"improved the accuracy "
        "of the models dramatically\"; the gap depends on whether the\n"
        "   4-channel guess happens to span the label-relevant fields — "
        "with all 16 there is nothing to guess)\n");
  }

  // -------------------------------------------------- 7. LARC vs LARS --
  std::printf("\nAblation 7 — LARC (clip) vs LARS (no clip) without "
              "warm-up (Sec V-B2)\n");
  for (const bool clip : {true, false}) {
    TrainerOptions o;
    o.arch = TrainerOptions::Arch::kTiramisu;
    o.tiramisu = Tiramisu::Config::Downscaled(4);
    o.optimizer = TrainerOptions::Opt::kSGD;
    o.learning_rate = 0.3f;  // no warm-up, straight to a large rate
    o.use_larc = true;
    o.larc.trust_coefficient = 5e-3f;
    o.larc.clip = clip;
    const auto result = RunDistributedTraining(o, dataset, 1, 30, 16);
    double worst = 0.0;
    for (const double l : result.loss_history) {
      worst = std::max(worst, std::isfinite(l) ? l : 1e30);
    }
    std::printf("  %-18s final loss %.4f, worst step loss %.4f\n",
                clip ? "LARC (clipped)" : "LARS (unclipped)",
                FinalSmoothedLoss(result), worst);
  }
  std::printf("  (LARC's clip bounds the local rate by the scheduled rate, "
              "so no warm-up schedule is needed)\n");
  return 0;
}

}  // namespace exaclim

int main() { return exaclim::Main(); }
