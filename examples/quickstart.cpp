// Quickstart: the shortest path through the public API.
//
// Generates a small synthetic climate dataset, trains a downscaled
// Tiramisu segmentation network for a few epochs across 4 simulated
// data-parallel ranks (full Horovod-style gradient exchange), and prints
// the loss curve and validation IoU.
//
//   ./build/examples/example_quickstart

#include <cstdio>

#include "stats/stats.hpp"
#include "train/trainer.hpp"

int main() {
  using namespace exaclim;

  // 1. A deterministic synthetic CAM5-like dataset, labelled by the
  //    TECA-style heuristics (threshold TC detection + moisture
  //    floodfill for ARs).
  ClimateDataset::Options data;
  data.num_samples = 60;
  data.generator.height = 32;
  data.generator.width = 48;
  data.generator.mean_cyclones = 1.5;  // eventful grid for a small demo
  data.generator.mean_rivers = 1.5;
  data.channels = {kTMQ, kU850, kV850, kPSL};  // the Piz Daint 4-channel set
  const ClimateDataset dataset(data);
  const auto freq = dataset.MeasureFrequencies(16);
  std::printf("class frequencies: BG %.1f%%, AR %.2f%%, TC %.3f%%\n",
              freq[0] * 100, freq[1] * 100, freq[2] * 100);

  // 2. Training configuration: weighted loss (inverse-sqrt frequencies),
  //    Adam + LARC, hierarchical control plane, the paper's hybrid
  //    all-reduce (4 ranks share one 6-GPU node: the node's ring).
  TrainerOptions opts;
  opts.arch = TrainerOptions::Arch::kTiramisu;
  opts.tiramisu = Tiramisu::Config::Downscaled(4);
  opts.learning_rate = 2e-3f;

  // 3. Train for 100 steps over 4 simulated ranks, as 2 epochs of 50
  //    steps, validating the trained model after each epoch.
  std::printf("training Tiramisu over 4 data-parallel ranks...\n");
  TrainRunOptions run;
  run.steps_per_epoch = 50;
  run.validation_samples = 5;
  const TrainRunResult result =
      RunDistributedTraining(opts, dataset, /*ranks=*/4, /*steps=*/100,
                             /*images_per_rank=*/16, run);
  const auto smoothed = MovingAverage(result.loss_history, 10);
  for (std::size_t s = 9; s < smoothed.size(); s += 10) {
    std::printf("  step %3zu  loss %.4f\n", s + 1, smoothed[s]);
  }

  // 4. The final epoch's validation of the model the run trained (rank
  //    replicas are bit-identical, so rank 0's model is THE model).
  const ConfusionMatrix& cm = result.validation.back();
  std::printf(
      "validation: pixel accuracy %.1f%%, mean IoU %.1f%% (BG %.1f%%, AR "
      "%.1f%%, TC %.1f%%)\n",
      cm.PixelAccuracy() * 100, cm.MeanIoU() * 100, cm.IoU(0) * 100,
      cm.IoU(1) * 100, cm.IoU(2) * 100);
  std::printf("done.\n");
  return 0;
}
