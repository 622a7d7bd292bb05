#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <typeindex>
#include <vector>

#include "common/checksum.hpp"
#include "gradcheck.hpp"
#include "hvd/exchanger.hpp"
#include "models/deeplab.hpp"
#include "models/resnet.hpp"
#include "models/tiramisu.hpp"
#include "nn/conv_engine.hpp"
#include "nn/loss.hpp"

namespace exaclim {
namespace {

using testing::CheckInputGradient;

Tensor RandomInput(TensorShape shape, std::uint64_t seed = 1) {
  Rng rng(seed);
  return Tensor::Uniform(std::move(shape), rng, -1.0f, 1.0f);
}

// Runs one full forward/backward and checks every parameter got a
// nonzero-ish gradient somewhere (i.e. the whole graph is connected).
void ExpectAllParamsReceiveGradients(Layer& model, const Tensor& input) {
  for (Param* p : model.Params()) p->grad.SetZero();
  const Tensor out = model.Forward(input, /*train=*/true);
  Rng rng(77);
  const Tensor seed = Tensor::Uniform(out.shape(), rng, -1.0f, 1.0f);
  (void)model.Backward(seed);
  for (Param* p : model.Params()) {
    EXPECT_GT(p->grad.Norm(), 0.0f) << "dead gradient: " << p->name;
  }
}

// ---------------------------------------------------------- DenseBlock --

TEST(DenseBlock, OutputChannelsWithInput) {
  Rng rng(1);
  DenseBlock block("db",
                   {.in_c = 8, .growth = 4, .layers = 3, .kernel = 3,
                    .dropout = 0.0f, .include_input = true},
                   rng);
  EXPECT_EQ(block.out_channels(), 8 + 3 * 4);
  const auto out = block.OutputShape(TensorShape::NCHW(1, 8, 6, 6));
  EXPECT_EQ(out, TensorShape::NCHW(1, 20, 6, 6));
}

TEST(DenseBlock, OutputChannelsWithoutInput) {
  Rng rng(1);
  DenseBlock block("db",
                   {.in_c = 8, .growth = 4, .layers = 3, .kernel = 3,
                    .dropout = 0.0f, .include_input = false},
                   rng);
  EXPECT_EQ(block.out_channels(), 12);
}

TEST(DenseBlock, GradCheck) {
  for (const bool include_input : {true, false}) {
    Rng rng(2);
    DenseBlock block("db",
                     {.in_c = 3, .growth = 2, .layers = 2, .kernel = 3,
                      .dropout = 0.0f, .include_input = include_input},
                     rng);
    // Warm the batch norms so eval mode has sane running stats.
    const Tensor warm = RandomInput(TensorShape::NCHW(4, 3, 6, 6), 3);
    (void)block.Forward(warm, true);
    const Tensor x = RandomInput(TensorShape::NCHW(2, 3, 6, 6), 4);
    const auto res = CheckInputGradient(block, x);
    EXPECT_LT(res.max_rel_err, 2e-2) << "include_input=" << include_input;
  }
}

TEST(DenseBlock, ParamsReceiveGradients) {
  Rng rng(5);
  DenseBlock block("db",
                   {.in_c = 4, .growth = 3, .layers = 3, .kernel = 3,
                    .dropout = 0.0f, .include_input = true},
                   rng);
  ExpectAllParamsReceiveGradients(block,
                                  RandomInput(TensorShape::NCHW(2, 4, 8, 8)));
}

// ------------------------------------------------------------ Tiramisu --

TEST(Tiramisu, PresetConfigsMatchPaper) {
  const auto original = Tiramisu::Config::Original();
  EXPECT_EQ(original.growth_rate, 16);
  EXPECT_EQ(original.kernel, 3);
  const auto modified = Tiramisu::Config::Modified();
  EXPECT_EQ(modified.growth_rate, 32);
  EXPECT_EQ(modified.kernel, 5);
  // Sec V-B5: halved layer counts, same receptive field via 5×5.
  std::int64_t orig_total = original.bottleneck_layers;
  for (auto l : original.down_layers) orig_total += l;
  std::int64_t mod_total = modified.bottleneck_layers;
  for (auto l : modified.down_layers) mod_total += l;
  EXPECT_NEAR(static_cast<double>(orig_total) / mod_total, 2.0, 0.6);
}

TEST(Tiramisu, OutputShapeIsPerPixelClassMap) {
  Rng rng(6);
  Tiramisu net(Tiramisu::Config::Downscaled(4), rng);
  EXPECT_EQ(net.SpatialDivisor(), 4);
  const auto out = net.OutputShape(TensorShape::NCHW(2, 4, 16, 24));
  EXPECT_EQ(out, TensorShape::NCHW(2, 3, 16, 24));
  EXPECT_THROW(net.OutputShape(TensorShape::NCHW(1, 4, 10, 16)), Error);
}

TEST(Tiramisu, ForwardBackwardConnected) {
  Rng rng(7);
  Tiramisu net(Tiramisu::Config::Downscaled(4), rng);
  ExpectAllParamsReceiveGradients(
      net, RandomInput(TensorShape::NCHW(1, 4, 16, 16)));
}

TEST(Tiramisu, GradCheckTinyConfig) {
  Rng rng(8);
  Tiramisu::Config cfg;
  cfg.in_channels = 2;
  cfg.num_classes = 2;
  cfg.first_features = 3;
  cfg.growth_rate = 2;
  cfg.kernel = 3;
  cfg.down_layers = {1};
  cfg.bottleneck_layers = 1;
  cfg.dropout = 0.0f;
  Tiramisu net(cfg, rng);
  const Tensor warm = RandomInput(TensorShape::NCHW(4, 2, 8, 8), 9);
  (void)net.Forward(warm, true);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 2, 8, 8), 10);
  const auto res = CheckInputGradient(net, x, 1e-2, 60);
  EXPECT_LT(res.max_rel_err, 5e-2);
}

TEST(Tiramisu, ModifiedHasComparableParameterCountToOriginal) {
  // Sec V-B5: the growth-32 redesign kept overall network size roughly the
  // same. Verify within a factor ~2 at small input channel count.
  Rng rng(11);
  Tiramisu original(Tiramisu::Config::Original(), rng);
  Tiramisu modified(Tiramisu::Config::Modified(), rng);
  const double ratio = static_cast<double>(modified.ParameterCount()) /
                       static_cast<double>(original.ParameterCount());
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 4.0);
}

TEST(Tiramisu, FP16ForwardFinite) {
  Rng rng(12);
  Tiramisu net(Tiramisu::Config::Downscaled(4), rng);
  net.SetPrecision(Precision::kFP16);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 4, 16, 16), 13);
  const Tensor y = net.Forward(x, false);
  EXPECT_TRUE(y.AllFinite());
}

// ---------------------------------------------------------- Bottleneck --

TEST(Bottleneck, IdentityShortcutWhenShapesMatch) {
  Rng rng(14);
  Bottleneck block("b",
                   {.in_c = 8, .mid_c = 2, .out_c = 8, .stride = 1,
                    .dilation = 1},
                   rng);
  // Only the main path has parameters (no projection).
  std::set<std::string> names;
  for (Param* p : block.Params()) names.insert(p->name);
  EXPECT_EQ(names.count("b.proj.weight"), 0u);
}

TEST(Bottleneck, ProjectionShortcutWhenChannelsChange) {
  Rng rng(15);
  Bottleneck block("b",
                   {.in_c = 4, .mid_c = 2, .out_c = 8, .stride = 2,
                    .dilation = 1},
                   rng);
  std::set<std::string> names;
  for (Param* p : block.Params()) names.insert(p->name);
  EXPECT_EQ(names.count("b.proj.weight"), 1u);
  const auto out = block.OutputShape(TensorShape::NCHW(1, 4, 8, 8));
  EXPECT_EQ(out, TensorShape::NCHW(1, 8, 4, 4));
}

TEST(Bottleneck, GradCheck) {
  Rng rng(16);
  Bottleneck block("b",
                   {.in_c = 3, .mid_c = 2, .out_c = 6, .stride = 1,
                    .dilation = 2},
                   rng);
  const Tensor warm = RandomInput(TensorShape::NCHW(4, 3, 6, 6), 17);
  (void)block.Forward(warm, true);
  const Tensor x = RandomInput(TensorShape::NCHW(2, 3, 6, 6), 18);
  const auto res = CheckInputGradient(block, x);
  EXPECT_LT(res.max_rel_err, 2e-2);
}

// ------------------------------------------------------- ResNetEncoder --

TEST(ResNetEncoder, PaperGeometry) {
  // Fig 1: 1152×768 input -> stride 8 -> 144×96 with 2048 channels; the
  // low-level tap is at stride 4 (288×192) with 256 channels.
  Rng rng(19);
  ResNetEncoder enc(ResNetEncoder::Config::ResNet50(16), rng);
  EXPECT_EQ(enc.output_stride(), 8);
  EXPECT_EQ(enc.out_channels(), 2048);
  EXPECT_EQ(enc.low_level_channels(), 256);
  const auto out = enc.OutputShape(TensorShape::NCHW(1, 16, 768, 1152));
  EXPECT_EQ(out, TensorShape::NCHW(1, 2048, 96, 144));
  const auto low = enc.LowLevelShape(TensorShape::NCHW(1, 16, 768, 1152));
  EXPECT_EQ(low, TensorShape::NCHW(1, 256, 192, 288));
}

TEST(ResNetEncoder, DownscaledForwardBackward) {
  Rng rng(20);
  ResNetEncoder enc(ResNetEncoder::Config::Downscaled(4), rng);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 4, 32, 32));
  const Tensor y = enc.Forward(x, true);
  EXPECT_EQ(y.shape(), enc.OutputShape(x.shape()));
  EXPECT_EQ(enc.low_level().shape(), enc.LowLevelShape(x.shape()));
  ExpectAllParamsReceiveGradients(enc, x);
}

TEST(ResNetEncoder, LowLevelGradientFlowsIn) {
  Rng rng(21);
  ResNetEncoder enc(ResNetEncoder::Config::Downscaled(4), rng);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 4, 32, 32));
  const Tensor y = enc.Forward(x, true);

  // Zero output gradient + nonzero low-level gradient must still produce
  // nonzero input gradient (the skip path is differentiable).
  enc.AddLowLevelGradient(Tensor::Full(enc.low_level().shape(), 0.1f));
  const Tensor gin = enc.Backward(Tensor::Zeros(y.shape()));
  EXPECT_GT(gin.Norm(), 0.0f);
}

// ---------------------------------------------------------------- ASPP --

TEST(ASPP, OutputShapePreservesResolution) {
  Rng rng(22);
  ASPP aspp("aspp", {.in_c = 8, .branch_c = 4, .rates = {2, 4, 6}}, rng);
  const auto out = aspp.OutputShape(TensorShape::NCHW(1, 8, 12, 18));
  EXPECT_EQ(out, TensorShape::NCHW(1, 4, 12, 18));
}

TEST(ASPP, HasFourBranchesPlusProjection) {
  Rng rng(23);
  ASPP aspp("aspp", {.in_c = 4, .branch_c = 2, .rates = {12, 24, 36}}, rng);
  // 4 branch convs + 4 branch bns + projection conv + bn = params: each
  // conv 1 param (no bias), each bn 2.
  EXPECT_EQ(aspp.Params().size(), 4u * 3u + 3u);
}

TEST(ASPP, GradCheck) {
  Rng rng(24);
  ASPP aspp("aspp", {.in_c = 3, .branch_c = 2, .rates = {1, 2}}, rng);
  const Tensor warm = RandomInput(TensorShape::NCHW(4, 3, 6, 6), 25);
  (void)aspp.Forward(warm, true);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 3, 6, 6), 26);
  const auto res = CheckInputGradient(aspp, x);
  EXPECT_LT(res.max_rel_err, 2e-2);
}

// ------------------------------------------------------- DeepLabV3Plus --

TEST(DeepLabV3Plus, PaperConfigShapes) {
  // Full-size network construction is cheap (weights only, no
  // activations): validate the Fig 1 geometry end to end.
  Rng rng(27);
  DeepLabV3Plus net(DeepLabV3Plus::Config::Paper(16), rng);
  const auto out = net.OutputShape(TensorShape::NCHW(1, 16, 768, 1152));
  EXPECT_EQ(out, TensorShape::NCHW(1, 3, 768, 1152));
  // ResNet-50 core: parameter count in the tens of millions.
  const auto params = net.ParameterCount();
  EXPECT_GT(params, 20'000'000);
  EXPECT_LT(params, 80'000'000);
}

TEST(DeepLabV3Plus, DownscaledForwardBackwardConnected) {
  Rng rng(28);
  DeepLabV3Plus net(DeepLabV3Plus::Config::Downscaled(4), rng);
  ExpectAllParamsReceiveGradients(
      net, RandomInput(TensorShape::NCHW(1, 4, 32, 32)));
}

TEST(DeepLabV3Plus, QuarterResDecoderVariant) {
  Rng rng(29);
  auto cfg = DeepLabV3Plus::Config::Downscaled(4);
  cfg.full_res_decoder = false;
  DeepLabV3Plus net(cfg, rng);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 4, 32, 32));
  const Tensor y = net.Forward(x, true);
  EXPECT_EQ(y.shape(), TensorShape::NCHW(1, 3, 32, 32));
  ExpectAllParamsReceiveGradients(net, x);

  // The quarter-res variant must be cheaper in parameters than full-res.
  Rng rng2(29);
  DeepLabV3Plus full(DeepLabV3Plus::Config::Downscaled(4), rng2);
  EXPECT_LT(net.ParameterCount(), full.ParameterCount());
}

TEST(DeepLabV3Plus, TrainingStepReducesLoss) {
  // One tiny but real end-to-end sanity check: a few SGD steps on a fixed
  // batch must reduce the weighted loss.
  Rng rng(30);
  auto cfg = DeepLabV3Plus::Config::Downscaled(2);
  cfg.num_classes = 2;
  DeepLabV3Plus net(cfg, rng);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 2, 16, 16), 31);
  std::vector<std::uint8_t> labels(16 * 16, 0);
  for (std::size_t i = 0; i < labels.size(); i += 7) labels[i] = 1;

  double first_loss = 0, last_loss = 0;
  for (int step = 0; step < 8; ++step) {
    for (Param* p : net.Params()) p->grad.SetZero();
    const Tensor logits = net.Forward(x, true);
    const auto res = WeightedSoftmaxCrossEntropy(logits, labels, {});
    (void)net.Backward(res.grad_logits);
    for (Param* p : net.Params()) p->value.Axpy(-0.05f, p->grad);
    if (step == 0) first_loss = res.loss;
    last_loss = res.loss;
  }
  EXPECT_LT(last_loss, first_loss);
}


// ------------------------------------------------------ Layer order ----
//
// Checkpoints name their datasets after Params()/StateTensors() in order,
// and the exchanger fills its buckets in grad-ready emission order, so
// these orders are part of the on-disk and on-wire format: any change
// here breaks resume from older checkpoints and cross-version exchange.

constexpr std::string_view kTiramisuDownscaledParams = R"(
tiramisu.first.weight tiramisu.down0.unit0.bn.gamma
tiramisu.down0.unit0.bn.beta tiramisu.down0.unit0.conv.weight
tiramisu.down1.unit0.bn.gamma tiramisu.down1.unit0.bn.beta
tiramisu.down1.unit0.conv.weight tiramisu.down0.td.bn.gamma
tiramisu.down0.td.bn.beta tiramisu.down0.td.conv.weight
tiramisu.down1.td.bn.gamma tiramisu.down1.td.bn.beta
tiramisu.down1.td.conv.weight tiramisu.bottleneck.unit0.bn.gamma
tiramisu.bottleneck.unit0.bn.beta tiramisu.bottleneck.unit0.conv.weight
tiramisu.up1.tu.weight tiramisu.up0.tu.weight tiramisu.up1.unit0.bn.gamma
tiramisu.up1.unit0.bn.beta tiramisu.up1.unit0.conv.weight
tiramisu.up0.unit0.bn.gamma tiramisu.up0.unit0.bn.beta
tiramisu.up0.unit0.conv.weight tiramisu.final.weight tiramisu.final.bias)";

constexpr std::string_view kTiramisuDownscaledState = R"(
tiramisu.down0.unit0.bn.running_mean tiramisu.down0.unit0.bn.running_var
tiramisu.down1.unit0.bn.running_mean tiramisu.down1.unit0.bn.running_var
tiramisu.down0.td.bn.running_mean tiramisu.down0.td.bn.running_var
tiramisu.down1.td.bn.running_mean tiramisu.down1.td.bn.running_var
tiramisu.bottleneck.unit0.bn.running_mean
tiramisu.bottleneck.unit0.bn.running_var tiramisu.up1.unit0.bn.running_mean
tiramisu.up1.unit0.bn.running_var tiramisu.up0.unit0.bn.running_mean
tiramisu.up0.unit0.bn.running_var)";

constexpr std::string_view kTiramisuDownscaledEmission = R"(
tiramisu.final.weight tiramisu.final.bias tiramisu.up0.unit0.bn.gamma
tiramisu.up0.unit0.bn.beta tiramisu.up0.unit0.conv.weight
tiramisu.up0.tu.weight tiramisu.up1.unit0.bn.gamma
tiramisu.up1.unit0.bn.beta tiramisu.up1.unit0.conv.weight
tiramisu.up1.tu.weight tiramisu.bottleneck.unit0.bn.gamma
tiramisu.bottleneck.unit0.bn.beta tiramisu.bottleneck.unit0.conv.weight
tiramisu.down1.td.bn.gamma tiramisu.down1.td.bn.beta
tiramisu.down1.td.conv.weight tiramisu.down1.unit0.bn.gamma
tiramisu.down1.unit0.bn.beta tiramisu.down1.unit0.conv.weight
tiramisu.down0.td.bn.gamma tiramisu.down0.td.bn.beta
tiramisu.down0.td.conv.weight tiramisu.down0.unit0.bn.gamma
tiramisu.down0.unit0.bn.beta tiramisu.down0.unit0.conv.weight
tiramisu.first.weight)";

constexpr std::string_view kDeepLabDownscaledFullResParams = R"(
encoder.stem.conv.weight encoder.stem.bn.gamma encoder.stem.bn.beta
encoder.stage1.block0.conv1.weight encoder.stage1.block0.bn1.gamma
encoder.stage1.block0.bn1.beta encoder.stage1.block0.conv2.weight
encoder.stage1.block0.bn2.gamma encoder.stage1.block0.bn2.beta
encoder.stage1.block0.conv3.weight encoder.stage1.block0.bn3.gamma
encoder.stage1.block0.bn3.beta encoder.stage1.block0.proj.weight
encoder.stage1.block0.proj_bn.gamma encoder.stage1.block0.proj_bn.beta
encoder.stage2.block0.conv1.weight encoder.stage2.block0.bn1.gamma
encoder.stage2.block0.bn1.beta encoder.stage2.block0.conv2.weight
encoder.stage2.block0.bn2.gamma encoder.stage2.block0.bn2.beta
encoder.stage2.block0.conv3.weight encoder.stage2.block0.bn3.gamma
encoder.stage2.block0.bn3.beta encoder.stage2.block0.proj.weight
encoder.stage2.block0.proj_bn.gamma encoder.stage2.block0.proj_bn.beta
encoder.stage3.block0.conv1.weight encoder.stage3.block0.bn1.gamma
encoder.stage3.block0.bn1.beta encoder.stage3.block0.conv2.weight
encoder.stage3.block0.bn2.gamma encoder.stage3.block0.bn2.beta
encoder.stage3.block0.conv3.weight encoder.stage3.block0.bn3.gamma
encoder.stage3.block0.bn3.beta encoder.stage3.block0.proj.weight
encoder.stage3.block0.proj_bn.gamma encoder.stage3.block0.proj_bn.beta
encoder.stage4.block0.conv1.weight encoder.stage4.block0.bn1.gamma
encoder.stage4.block0.bn1.beta encoder.stage4.block0.conv2.weight
encoder.stage4.block0.bn2.gamma encoder.stage4.block0.bn2.beta
encoder.stage4.block0.conv3.weight encoder.stage4.block0.bn3.gamma
encoder.stage4.block0.bn3.beta encoder.stage4.block0.proj.weight
encoder.stage4.block0.proj_bn.gamma encoder.stage4.block0.proj_bn.beta
aspp.b1x1.conv.weight aspp.b1x1.bn.gamma aspp.b1x1.bn.beta
aspp.b3x3_d2.conv.weight aspp.b3x3_d2.bn.gamma aspp.b3x3_d2.bn.beta
aspp.b3x3_d4.conv.weight aspp.b3x3_d4.bn.gamma aspp.b3x3_d4.bn.beta
aspp.b3x3_d6.conv.weight aspp.b3x3_d6.bn.gamma aspp.b3x3_d6.bn.beta
aspp.project.conv.weight aspp.project.bn.gamma aspp.project.bn.beta
decoder.skip.conv.weight decoder.skip.bn.gamma decoder.skip.bn.beta
decoder.up1.weight decoder.refine.conv1.weight decoder.refine.bn1.gamma
decoder.refine.bn1.beta decoder.refine.conv2.weight decoder.refine.bn2.gamma
decoder.refine.bn2.beta decoder.up2.deconv.weight decoder.up2.bn.gamma
decoder.up2.bn.beta decoder.up2.conv.weight decoder.up2.bn2.gamma
decoder.up2.bn2.beta decoder.up3.deconv.weight decoder.up3.bn.gamma
decoder.up3.bn.beta decoder.up3.conv.weight decoder.up3.bn2.gamma
decoder.up3.bn2.beta decoder.classifier.weight decoder.classifier.bias)";

constexpr std::string_view kDeepLabDownscaledFullResState = R"(
encoder.stem.bn.running_mean encoder.stem.bn.running_var
encoder.stage1.block0.bn1.running_mean encoder.stage1.block0.bn1.running_var
encoder.stage1.block0.bn2.running_mean encoder.stage1.block0.bn2.running_var
encoder.stage1.block0.bn3.running_mean encoder.stage1.block0.bn3.running_var
encoder.stage1.block0.proj_bn.running_mean
encoder.stage1.block0.proj_bn.running_var
encoder.stage2.block0.bn1.running_mean encoder.stage2.block0.bn1.running_var
encoder.stage2.block0.bn2.running_mean encoder.stage2.block0.bn2.running_var
encoder.stage2.block0.bn3.running_mean encoder.stage2.block0.bn3.running_var
encoder.stage2.block0.proj_bn.running_mean
encoder.stage2.block0.proj_bn.running_var
encoder.stage3.block0.bn1.running_mean encoder.stage3.block0.bn1.running_var
encoder.stage3.block0.bn2.running_mean encoder.stage3.block0.bn2.running_var
encoder.stage3.block0.bn3.running_mean encoder.stage3.block0.bn3.running_var
encoder.stage3.block0.proj_bn.running_mean
encoder.stage3.block0.proj_bn.running_var
encoder.stage4.block0.bn1.running_mean encoder.stage4.block0.bn1.running_var
encoder.stage4.block0.bn2.running_mean encoder.stage4.block0.bn2.running_var
encoder.stage4.block0.bn3.running_mean encoder.stage4.block0.bn3.running_var
encoder.stage4.block0.proj_bn.running_mean
encoder.stage4.block0.proj_bn.running_var aspp.b1x1.bn.running_mean
aspp.b1x1.bn.running_var aspp.b3x3_d2.bn.running_mean
aspp.b3x3_d2.bn.running_var aspp.b3x3_d4.bn.running_mean
aspp.b3x3_d4.bn.running_var aspp.b3x3_d6.bn.running_mean
aspp.b3x3_d6.bn.running_var aspp.project.bn.running_mean
aspp.project.bn.running_var decoder.skip.bn.running_mean
decoder.skip.bn.running_var decoder.refine.bn1.running_mean
decoder.refine.bn1.running_var decoder.refine.bn2.running_mean
decoder.refine.bn2.running_var decoder.up2.bn.running_mean
decoder.up2.bn.running_var decoder.up2.bn2.running_mean
decoder.up2.bn2.running_var decoder.up3.bn.running_mean
decoder.up3.bn.running_var decoder.up3.bn2.running_mean
decoder.up3.bn2.running_var)";

constexpr std::string_view kDeepLabDownscaledFullResEmission = R"(
decoder.classifier.weight decoder.classifier.bias decoder.up3.deconv.weight
decoder.up3.bn.gamma decoder.up3.bn.beta decoder.up3.conv.weight
decoder.up3.bn2.gamma decoder.up3.bn2.beta decoder.up2.deconv.weight
decoder.up2.bn.gamma decoder.up2.bn.beta decoder.up2.conv.weight
decoder.up2.bn2.gamma decoder.up2.bn2.beta decoder.refine.conv1.weight
decoder.refine.bn1.gamma decoder.refine.bn1.beta decoder.refine.conv2.weight
decoder.refine.bn2.gamma decoder.refine.bn2.beta decoder.skip.conv.weight
decoder.skip.bn.gamma decoder.skip.bn.beta decoder.up1.weight
aspp.b1x1.conv.weight aspp.b1x1.bn.gamma aspp.b1x1.bn.beta
aspp.b3x3_d2.conv.weight aspp.b3x3_d2.bn.gamma aspp.b3x3_d2.bn.beta
aspp.b3x3_d4.conv.weight aspp.b3x3_d4.bn.gamma aspp.b3x3_d4.bn.beta
aspp.b3x3_d6.conv.weight aspp.b3x3_d6.bn.gamma aspp.b3x3_d6.bn.beta
aspp.project.conv.weight aspp.project.bn.gamma aspp.project.bn.beta
encoder.stage4.block0.conv1.weight encoder.stage4.block0.bn1.gamma
encoder.stage4.block0.bn1.beta encoder.stage4.block0.conv2.weight
encoder.stage4.block0.bn2.gamma encoder.stage4.block0.bn2.beta
encoder.stage4.block0.conv3.weight encoder.stage4.block0.bn3.gamma
encoder.stage4.block0.bn3.beta encoder.stage4.block0.proj.weight
encoder.stage4.block0.proj_bn.gamma encoder.stage4.block0.proj_bn.beta
encoder.stage3.block0.conv1.weight encoder.stage3.block0.bn1.gamma
encoder.stage3.block0.bn1.beta encoder.stage3.block0.conv2.weight
encoder.stage3.block0.bn2.gamma encoder.stage3.block0.bn2.beta
encoder.stage3.block0.conv3.weight encoder.stage3.block0.bn3.gamma
encoder.stage3.block0.bn3.beta encoder.stage3.block0.proj.weight
encoder.stage3.block0.proj_bn.gamma encoder.stage3.block0.proj_bn.beta
encoder.stage2.block0.conv1.weight encoder.stage2.block0.bn1.gamma
encoder.stage2.block0.bn1.beta encoder.stage2.block0.conv2.weight
encoder.stage2.block0.bn2.gamma encoder.stage2.block0.bn2.beta
encoder.stage2.block0.conv3.weight encoder.stage2.block0.bn3.gamma
encoder.stage2.block0.bn3.beta encoder.stage2.block0.proj.weight
encoder.stage2.block0.proj_bn.gamma encoder.stage2.block0.proj_bn.beta
encoder.stage1.block0.conv1.weight encoder.stage1.block0.bn1.gamma
encoder.stage1.block0.bn1.beta encoder.stage1.block0.conv2.weight
encoder.stage1.block0.bn2.gamma encoder.stage1.block0.bn2.beta
encoder.stage1.block0.conv3.weight encoder.stage1.block0.bn3.gamma
encoder.stage1.block0.bn3.beta encoder.stage1.block0.proj.weight
encoder.stage1.block0.proj_bn.gamma encoder.stage1.block0.proj_bn.beta
encoder.stem.conv.weight encoder.stem.bn.gamma encoder.stem.bn.beta)";

constexpr std::string_view kDeepLabDownscaledQuarterResParams = R"(
encoder.stem.conv.weight encoder.stem.bn.gamma encoder.stem.bn.beta
encoder.stage1.block0.conv1.weight encoder.stage1.block0.bn1.gamma
encoder.stage1.block0.bn1.beta encoder.stage1.block0.conv2.weight
encoder.stage1.block0.bn2.gamma encoder.stage1.block0.bn2.beta
encoder.stage1.block0.conv3.weight encoder.stage1.block0.bn3.gamma
encoder.stage1.block0.bn3.beta encoder.stage1.block0.proj.weight
encoder.stage1.block0.proj_bn.gamma encoder.stage1.block0.proj_bn.beta
encoder.stage2.block0.conv1.weight encoder.stage2.block0.bn1.gamma
encoder.stage2.block0.bn1.beta encoder.stage2.block0.conv2.weight
encoder.stage2.block0.bn2.gamma encoder.stage2.block0.bn2.beta
encoder.stage2.block0.conv3.weight encoder.stage2.block0.bn3.gamma
encoder.stage2.block0.bn3.beta encoder.stage2.block0.proj.weight
encoder.stage2.block0.proj_bn.gamma encoder.stage2.block0.proj_bn.beta
encoder.stage3.block0.conv1.weight encoder.stage3.block0.bn1.gamma
encoder.stage3.block0.bn1.beta encoder.stage3.block0.conv2.weight
encoder.stage3.block0.bn2.gamma encoder.stage3.block0.bn2.beta
encoder.stage3.block0.conv3.weight encoder.stage3.block0.bn3.gamma
encoder.stage3.block0.bn3.beta encoder.stage3.block0.proj.weight
encoder.stage3.block0.proj_bn.gamma encoder.stage3.block0.proj_bn.beta
encoder.stage4.block0.conv1.weight encoder.stage4.block0.bn1.gamma
encoder.stage4.block0.bn1.beta encoder.stage4.block0.conv2.weight
encoder.stage4.block0.bn2.gamma encoder.stage4.block0.bn2.beta
encoder.stage4.block0.conv3.weight encoder.stage4.block0.bn3.gamma
encoder.stage4.block0.bn3.beta encoder.stage4.block0.proj.weight
encoder.stage4.block0.proj_bn.gamma encoder.stage4.block0.proj_bn.beta
aspp.b1x1.conv.weight aspp.b1x1.bn.gamma aspp.b1x1.bn.beta
aspp.b3x3_d2.conv.weight aspp.b3x3_d2.bn.gamma aspp.b3x3_d2.bn.beta
aspp.b3x3_d4.conv.weight aspp.b3x3_d4.bn.gamma aspp.b3x3_d4.bn.beta
aspp.b3x3_d6.conv.weight aspp.b3x3_d6.bn.gamma aspp.b3x3_d6.bn.beta
aspp.project.conv.weight aspp.project.bn.gamma aspp.project.bn.beta
decoder.skip.conv.weight decoder.skip.bn.gamma decoder.skip.bn.beta
decoder.up1.weight decoder.refine.conv1.weight decoder.refine.bn1.gamma
decoder.refine.bn1.beta decoder.refine.conv2.weight decoder.refine.bn2.gamma
decoder.refine.bn2.beta decoder.classifier.weight decoder.classifier.bias)";

constexpr std::string_view kDeepLabDownscaledQuarterResState = R"(
encoder.stem.bn.running_mean encoder.stem.bn.running_var
encoder.stage1.block0.bn1.running_mean encoder.stage1.block0.bn1.running_var
encoder.stage1.block0.bn2.running_mean encoder.stage1.block0.bn2.running_var
encoder.stage1.block0.bn3.running_mean encoder.stage1.block0.bn3.running_var
encoder.stage1.block0.proj_bn.running_mean
encoder.stage1.block0.proj_bn.running_var
encoder.stage2.block0.bn1.running_mean encoder.stage2.block0.bn1.running_var
encoder.stage2.block0.bn2.running_mean encoder.stage2.block0.bn2.running_var
encoder.stage2.block0.bn3.running_mean encoder.stage2.block0.bn3.running_var
encoder.stage2.block0.proj_bn.running_mean
encoder.stage2.block0.proj_bn.running_var
encoder.stage3.block0.bn1.running_mean encoder.stage3.block0.bn1.running_var
encoder.stage3.block0.bn2.running_mean encoder.stage3.block0.bn2.running_var
encoder.stage3.block0.bn3.running_mean encoder.stage3.block0.bn3.running_var
encoder.stage3.block0.proj_bn.running_mean
encoder.stage3.block0.proj_bn.running_var
encoder.stage4.block0.bn1.running_mean encoder.stage4.block0.bn1.running_var
encoder.stage4.block0.bn2.running_mean encoder.stage4.block0.bn2.running_var
encoder.stage4.block0.bn3.running_mean encoder.stage4.block0.bn3.running_var
encoder.stage4.block0.proj_bn.running_mean
encoder.stage4.block0.proj_bn.running_var aspp.b1x1.bn.running_mean
aspp.b1x1.bn.running_var aspp.b3x3_d2.bn.running_mean
aspp.b3x3_d2.bn.running_var aspp.b3x3_d4.bn.running_mean
aspp.b3x3_d4.bn.running_var aspp.b3x3_d6.bn.running_mean
aspp.b3x3_d6.bn.running_var aspp.project.bn.running_mean
aspp.project.bn.running_var decoder.skip.bn.running_mean
decoder.skip.bn.running_var decoder.refine.bn1.running_mean
decoder.refine.bn1.running_var decoder.refine.bn2.running_mean
decoder.refine.bn2.running_var)";

constexpr std::string_view kDeepLabDownscaledQuarterResEmission = R"(
decoder.classifier.weight decoder.classifier.bias
decoder.refine.conv1.weight decoder.refine.bn1.gamma decoder.refine.bn1.beta
decoder.refine.conv2.weight decoder.refine.bn2.gamma decoder.refine.bn2.beta
decoder.skip.conv.weight decoder.skip.bn.gamma decoder.skip.bn.beta
decoder.up1.weight aspp.b1x1.conv.weight aspp.b1x1.bn.gamma
aspp.b1x1.bn.beta aspp.b3x3_d2.conv.weight aspp.b3x3_d2.bn.gamma
aspp.b3x3_d2.bn.beta aspp.b3x3_d4.conv.weight aspp.b3x3_d4.bn.gamma
aspp.b3x3_d4.bn.beta aspp.b3x3_d6.conv.weight aspp.b3x3_d6.bn.gamma
aspp.b3x3_d6.bn.beta aspp.project.conv.weight aspp.project.bn.gamma
aspp.project.bn.beta encoder.stage4.block0.conv1.weight
encoder.stage4.block0.bn1.gamma encoder.stage4.block0.bn1.beta
encoder.stage4.block0.conv2.weight encoder.stage4.block0.bn2.gamma
encoder.stage4.block0.bn2.beta encoder.stage4.block0.conv3.weight
encoder.stage4.block0.bn3.gamma encoder.stage4.block0.bn3.beta
encoder.stage4.block0.proj.weight encoder.stage4.block0.proj_bn.gamma
encoder.stage4.block0.proj_bn.beta encoder.stage3.block0.conv1.weight
encoder.stage3.block0.bn1.gamma encoder.stage3.block0.bn1.beta
encoder.stage3.block0.conv2.weight encoder.stage3.block0.bn2.gamma
encoder.stage3.block0.bn2.beta encoder.stage3.block0.conv3.weight
encoder.stage3.block0.bn3.gamma encoder.stage3.block0.bn3.beta
encoder.stage3.block0.proj.weight encoder.stage3.block0.proj_bn.gamma
encoder.stage3.block0.proj_bn.beta encoder.stage2.block0.conv1.weight
encoder.stage2.block0.bn1.gamma encoder.stage2.block0.bn1.beta
encoder.stage2.block0.conv2.weight encoder.stage2.block0.bn2.gamma
encoder.stage2.block0.bn2.beta encoder.stage2.block0.conv3.weight
encoder.stage2.block0.bn3.gamma encoder.stage2.block0.bn3.beta
encoder.stage2.block0.proj.weight encoder.stage2.block0.proj_bn.gamma
encoder.stage2.block0.proj_bn.beta encoder.stage1.block0.conv1.weight
encoder.stage1.block0.bn1.gamma encoder.stage1.block0.bn1.beta
encoder.stage1.block0.conv2.weight encoder.stage1.block0.bn2.gamma
encoder.stage1.block0.bn2.beta encoder.stage1.block0.conv3.weight
encoder.stage1.block0.bn3.gamma encoder.stage1.block0.bn3.beta
encoder.stage1.block0.proj.weight encoder.stage1.block0.proj_bn.gamma
encoder.stage1.block0.proj_bn.beta encoder.stem.conv.weight
encoder.stem.bn.gamma encoder.stem.bn.beta)";

std::vector<std::string> Words(std::string_view text) {
  std::vector<std::string> words;
  std::istringstream in{std::string(text)};
  for (std::string w; in >> w;) words.push_back(w);
  return words;
}

std::vector<std::string> ParamNames(Layer& model) {
  std::vector<std::string> names;
  for (const Param* p : model.Params()) names.push_back(p->name);
  return names;
}

std::vector<std::string> StateNames(Layer& model) {
  std::vector<std::string> names;
  for (const auto& s : model.StateTensors()) names.push_back(s.name);
  return names;
}

// Param names in the order one training Backward announces them through
// a GradReadyRecorder (the exchanger's bucket fill order), followed by
// any params no hook announced.
std::vector<std::string> EmissionNames(Layer& model, std::int64_t in_c) {
  const std::vector<Param*> params = model.Params();
  GradReadyRecorder recorder;
  recorder.Bind(params);
  recorder.BeginStep(nullptr);
  model.SetGradReadyListener(&recorder);
  const Tensor x = RandomInput(TensorShape::NCHW(1, in_c, 16, 16), 3);
  const Tensor y = model.Forward(x, /*train=*/true);
  (void)model.Backward(RandomInput(y.shape(), 4));
  recorder.FlushRemaining();
  model.SetGradReadyListener(nullptr);
  std::vector<std::string> names;
  for (const int i : recorder.order()) {
    names.push_back(params[static_cast<std::size_t>(i)]->name);
  }
  return names;
}

std::uint32_t NamesCrc(const std::vector<std::string>& names) {
  std::string joined;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) joined += '\n';
    joined += names[i];
  }
  return Crc32(std::as_bytes(std::span<const char>(joined)));
}

TEST(LayerOrder, TiramisuDownscaledGoldens) {
  Rng rng(40);
  Tiramisu net(Tiramisu::Config::Downscaled(4), rng);
  EXPECT_EQ(ParamNames(net), Words(kTiramisuDownscaledParams));
  EXPECT_EQ(StateNames(net), Words(kTiramisuDownscaledState));
  EXPECT_EQ(EmissionNames(net, 4), Words(kTiramisuDownscaledEmission));
}

TEST(LayerOrder, DeepLabDownscaledFullResGoldens) {
  Rng rng(41);
  DeepLabV3Plus net(DeepLabV3Plus::Config::Downscaled(4), rng);
  EXPECT_EQ(ParamNames(net), Words(kDeepLabDownscaledFullResParams));
  EXPECT_EQ(StateNames(net), Words(kDeepLabDownscaledFullResState));
  EXPECT_EQ(EmissionNames(net, 4), Words(kDeepLabDownscaledFullResEmission));
}

TEST(LayerOrder, DeepLabDownscaledQuarterResGoldens) {
  Rng rng(42);
  auto cfg = DeepLabV3Plus::Config::Downscaled(4);
  cfg.full_res_decoder = false;
  DeepLabV3Plus net(cfg, rng);
  EXPECT_EQ(ParamNames(net), Words(kDeepLabDownscaledQuarterResParams));
  EXPECT_EQ(StateNames(net), Words(kDeepLabDownscaledQuarterResState));
  EXPECT_EQ(EmissionNames(net, 4),
            Words(kDeepLabDownscaledQuarterResEmission));
}

TEST(LayerOrder, PaperScaleNameChecksums) {
  // Full-size trees are too long to spell out; pin count + CRC32 of the
  // newline-joined names instead.
  struct Expected {
    std::size_t params;
    std::uint32_t params_crc;
    std::size_t state;
    std::uint32_t state_crc;
  };
  const auto check = [](Layer& net, const Expected& e) {
    const auto params = ParamNames(net);
    const auto state = StateNames(net);
    EXPECT_EQ(params.size(), e.params) << net.name();
    EXPECT_EQ(NamesCrc(params), e.params_crc) << net.name();
    EXPECT_EQ(state.size(), e.state) << net.name();
    EXPECT_EQ(NamesCrc(state), e.state_crc) << net.name();
  };
  Rng rng(43);
  {
    Tiramisu net(Tiramisu::Config::Original(), rng);
    check(net, {94, 0x678e04d9u, 58, 0x6d3e597eu});
  }
  {
    Tiramisu net(Tiramisu::Config::Modified(), rng);
    check(net, {58, 0x8e87854bu, 34, 0xf7f14f7au});
  }
  {
    DeepLabV3Plus net(DeepLabV3Plus::Config::Paper(), rng);
    check(net, {198, 0xd998b370u, 130, 0x1ca5e691u});
  }
}

// ---------------------------------------------------------- Layer tree --

// Visits `node` and everything below it through Children(), depth-first.
void WalkTree(Layer& node, const std::function<void(Layer&)>& visit) {
  visit(node);
  for (Layer* child : node.Children()) WalkTree(*child, visit);
}

// The three properties the base class derives from Children(): params
// partition over the leaves, precision reaches every node, and the walk
// reaches every kind of leaf the model is built from.
void ExpectTreeCoversModel(Layer& root,
                           const std::set<std::type_index>& leaf_types) {
  SCOPED_TRACE(root.name());
  std::map<const Param*, int> reached;
  std::set<std::type_index> seen_types;
  WalkTree(root, [&](Layer& node) {
    if (!node.Children().empty()) return;
    seen_types.insert(typeid(node));
    for (const Param* p : node.Params()) ++reached[p];
  });
  const std::vector<Param*> params = root.Params();
  EXPECT_EQ(reached.size(), params.size());
  for (const Param* p : params) EXPECT_EQ(reached[p], 1) << p->name;
  EXPECT_EQ(seen_types, leaf_types);

  root.SetPrecision(Precision::kFP16);
  WalkTree(root, [](Layer& node) {
    EXPECT_EQ(node.precision(), Precision::kFP16) << node.name();
  });
}

TEST(LayerTree, ChildrenCoverEveryParamNodeAndLeafType) {
  const std::type_index conv = typeid(Conv2d), deconv = typeid(ConvTranspose2d),
                        bn = typeid(BatchNorm2d), relu = typeid(ReLU),
                        pool = typeid(MaxPool2d);
  Rng rng(44);
  auto tiramisu_cfg = Tiramisu::Config::Downscaled(4);
  tiramisu_cfg.dropout = 0.2f;
  Tiramisu tiramisu(tiramisu_cfg, rng);
  ExpectTreeCoversModel(tiramisu,
                        {conv, deconv, bn, relu, pool, typeid(Dropout)});

  DeepLabV3Plus deeplab(DeepLabV3Plus::Config::Downscaled(4), rng);
  ExpectTreeCoversModel(deeplab, {conv, deconv, bn, relu, pool});

  auto quarter_cfg = DeepLabV3Plus::Config::Downscaled(4);
  quarter_cfg.full_res_decoder = false;
  DeepLabV3Plus quarter(quarter_cfg, rng);
  ExpectTreeCoversModel(
      quarter, {conv, deconv, bn, relu, pool, typeid(BilinearUpsample2d)});
}

// ------------------------------------------- FP16 fused chains, whole nets --

/// Trains `model` in FP16 for three steps (train forward, a fixed random
/// output gradient, backward, SGD on the FP32 master weights), then runs
/// one eval forward, with conv fusion on or off. Returns the CRC-32 of
/// every param, every state tensor and the eval output.
std::uint32_t Fp16TrainCrc(Layer& model, const TensorShape& input_shape,
                           bool fuse) {
  const bool saved = ConvFusionEnabled();
  SetConvFusion(fuse);
  model.SetPrecision(Precision::kFP16);
  for (int step = 0; step < 3; ++step) {
    for (Param* p : model.Params()) p->grad.SetZero();
    const Tensor out =
        model.Forward(RandomInput(input_shape, 100 + step), /*train=*/true);
    Rng grng(200 + static_cast<std::uint64_t>(step));
    (void)model.Backward(Tensor::Uniform(out.shape(), grng, -1.0f, 1.0f));
    for (Param* p : model.Params()) p->value.Axpy(-0.05f, p->grad);
  }
  const Tensor eval = model.Forward(RandomInput(input_shape, 300), false);
  SetConvFusion(saved);

  std::uint32_t crc = 0;
  for (const Param* p : model.Params()) {
    crc = Crc32(std::as_bytes(p->value.Data()), crc);
  }
  for (const Layer::StateTensor& s : model.StateTensors()) {
    crc = Crc32(std::as_bytes(s.tensor->Data()), crc);
  }
  return Crc32(std::as_bytes(eval.Data()), crc);
}

// FP16 training of each network family gives bitwise the same weights,
// running statistics and eval output with its Conv→BN→ReLU, Conv→ReLU,
// BN→ReLU chains fused or run layer by layer (DESIGN §17).
TEST(Fp16Fusion, WholeNetworksTrainBitIdenticalFusedAndUnfused) {
  const TensorShape input = TensorShape::NCHW(2, 4, 32, 32);
  const auto check = [&](const char* name, auto make) {
    SCOPED_TRACE(name);
    auto unfused = make();
    auto fused = make();
    EXPECT_EQ(Fp16TrainCrc(*unfused, input, false),
              Fp16TrainCrc(*fused, input, true));
  };
  check("tiramisu", [] {
    Rng rng(61);
    return std::make_unique<Tiramisu>(Tiramisu::Config::Downscaled(4), rng);
  });
  check("deeplab", [] {
    Rng rng(62);
    return std::make_unique<DeepLabV3Plus>(DeepLabV3Plus::Config::Downscaled(4),
                                           rng);
  });
  check("resnet", [] {
    Rng rng(63);
    return std::make_unique<ResNetEncoder>(ResNetEncoder::Config::Downscaled(4),
                                           rng);
  });
}

}  // namespace
}  // namespace exaclim
