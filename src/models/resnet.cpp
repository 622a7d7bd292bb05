#include "models/resnet.hpp"

namespace exaclim {

// --------------------------------------------------------- Bottleneck ---

Bottleneck::Bottleneck(std::string name, const Options& opts, Rng& rng)
    : Layer(std::move(name)), opts_(opts) {
  EXACLIM_CHECK(opts_.in_c > 0 && opts_.mid_c > 0 && opts_.out_c > 0,
                this->name() << ": bad bottleneck options");
  main_ = std::make_unique<Sequential>(this->name() + ".main");
  main_->Emplace<Conv2d>(
      this->name() + ".conv1",
      Conv2d::Options{.in_c = opts_.in_c, .out_c = opts_.mid_c, .kernel = 1,
                      .pad = 0, .bias = false},
      rng);
  main_->Emplace<BatchNorm2d>(this->name() + ".bn1", opts_.mid_c);
  main_->Emplace<ReLU>(this->name() + ".relu1");
  main_->Emplace<Conv2d>(
      this->name() + ".conv2",
      Conv2d::Options{.in_c = opts_.mid_c, .out_c = opts_.mid_c, .kernel = 3,
                      .stride = opts_.stride, .pad = opts_.dilation,
                      .dilation = opts_.dilation, .bias = false},
      rng);
  main_->Emplace<BatchNorm2d>(this->name() + ".bn2", opts_.mid_c);
  main_->Emplace<ReLU>(this->name() + ".relu2");
  main_->Emplace<Conv2d>(
      this->name() + ".conv3",
      Conv2d::Options{.in_c = opts_.mid_c, .out_c = opts_.out_c, .kernel = 1,
                      .pad = 0, .bias = false},
      rng);
  main_->Emplace<BatchNorm2d>(this->name() + ".bn3", opts_.out_c);

  if (opts_.in_c != opts_.out_c || opts_.stride != 1) {
    shortcut_ = std::make_unique<Sequential>(this->name() + ".shortcut");
    shortcut_->Emplace<Conv2d>(
        this->name() + ".proj",
        Conv2d::Options{.in_c = opts_.in_c, .out_c = opts_.out_c,
                        .kernel = 1, .stride = opts_.stride, .pad = 0,
                        .bias = false},
        rng);
    shortcut_->Emplace<BatchNorm2d>(this->name() + ".proj_bn", opts_.out_c);
  }
  out_relu_ = std::make_unique<ReLU>(this->name() + ".out_relu");
  AddChild(*main_);
  if (shortcut_) AddChild(*shortcut_);
  AddChild(*out_relu_);
}

TensorShape Bottleneck::OutputShape(const TensorShape& input) const {
  return main_->OutputShape(input);
}

Tensor Bottleneck::Forward(const Tensor& input, bool train) {
  cached_input_ = input;
  Tensor y = main_->Forward(input, train);
  if (shortcut_) {
    y += shortcut_->Forward(input, train);
  } else {
    y += input;
  }
  Tensor out = out_relu_->Forward(y, train);
  return out;
}

Tensor Bottleneck::Backward(const Tensor& grad_output) {
  const Tensor g_sum = out_relu_->Backward(grad_output);
  Tensor g_in = main_->Backward(g_sum);
  if (shortcut_) {
    g_in += shortcut_->Backward(g_sum);
  } else {
    g_in += g_sum;
  }
  return g_in;
}

// ------------------------------------------------------ ResNetEncoder ---

ResNetEncoder::Config ResNetEncoder::Config::ResNet50(
    std::int64_t in_channels) {
  Config c;
  c.in_channels = in_channels;
  return c;
}

ResNetEncoder::Config ResNetEncoder::Config::Downscaled(
    std::int64_t in_channels) {
  Config c;
  c.in_channels = in_channels;
  c.stem_features = 8;
  c.stage_widths = {8, 16, 32, 64};
  c.stage_blocks = {1, 1, 1, 1};
  return c;
}

ResNetEncoder::ResNetEncoder(const Config& config, Rng& rng)
    : Layer("encoder"), config_(config) {
  const std::size_t n_stages = config_.stage_widths.size();
  EXACLIM_CHECK(config_.stage_blocks.size() == n_stages &&
                    config_.stage_strides.size() == n_stages &&
                    config_.stage_dilations.size() == n_stages,
                "encoder: inconsistent stage config");

  stem_ = std::make_unique<Sequential>("encoder.stem");
  stem_->Emplace<Conv2d>(
      "encoder.stem.conv",
      Conv2d::Options{.in_c = config_.in_channels,
                      .out_c = config_.stem_features, .kernel = 7,
                      .stride = 2, .bias = false},
      rng);
  stem_->Emplace<BatchNorm2d>("encoder.stem.bn", config_.stem_features);
  stem_->Emplace<ReLU>("encoder.stem.relu");
  stem_->Emplace<MaxPool2d>("encoder.stem.pool", 3, 2);

  std::int64_t c = config_.stem_features;
  output_stride_ = 4;  // stem conv /2 + pool /2
  for (std::size_t s = 0; s < n_stages; ++s) {
    const std::int64_t width = config_.stage_widths[s];
    const std::int64_t out_c = width * 4;
    for (std::int64_t b = 0; b < config_.stage_blocks[s]; ++b) {
      const std::int64_t stride =
          (b == 0) ? config_.stage_strides[s] : 1;
      blocks_.push_back(std::make_unique<Bottleneck>(
          "encoder.stage" + std::to_string(s + 1) + ".block" +
              std::to_string(b),
          Bottleneck::Options{.in_c = c, .mid_c = width, .out_c = out_c,
                              .stride = stride,
                              .dilation = config_.stage_dilations[s]},
          rng));
      c = out_c;
    }
    output_stride_ *= config_.stage_strides[s];
    if (s == 0) {
      low_level_block_end_ = blocks_.size();
      low_level_channels_ = c;
    }
  }
  out_channels_ = c;
  AddChild(*stem_);
  for (auto& b : blocks_) AddChild(*b);
}

TensorShape ResNetEncoder::OutputShape(const TensorShape& input) const {
  TensorShape s = stem_->OutputShape(input);
  for (const auto& b : blocks_) s = b->OutputShape(s);
  return s;
}

TensorShape ResNetEncoder::LowLevelShape(const TensorShape& input) const {
  TensorShape s = stem_->OutputShape(input);
  for (std::size_t i = 0; i < low_level_block_end_; ++i) {
    s = blocks_[i]->OutputShape(s);
  }
  return s;
}

Tensor ResNetEncoder::Forward(const Tensor& input, bool train) {
  Tensor x = stem_->Forward(input, train);
  low_level_grad_ = Tensor();
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    x = blocks_[i]->Forward(x, train);
    if (i + 1 == low_level_block_end_) low_level_ = x;
  }
  return x;
}

void ResNetEncoder::AddLowLevelGradient(Tensor grad) {
  low_level_grad_ = std::move(grad);
}

Tensor ResNetEncoder::Backward(const Tensor& grad_output) {
  // Overlap hooks (DESIGN §14): each block announced right after its
  // Backward. The listener arrives via DeepLabV3Plus, which forwards its
  // own before calling into the encoder.
  Tensor g = grad_output;
  for (std::size_t i = blocks_.size(); i-- > 0;) {
    if (i + 1 == low_level_block_end_ && !low_level_grad_.Empty()) {
      g += low_level_grad_;
    }
    g = BackwardChild(*blocks_[i], g);
  }
  return BackwardChild(*stem_, g);
}

}  // namespace exaclim
