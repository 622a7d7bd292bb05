#include "models/tiramisu.hpp"

#include <algorithm>

namespace exaclim {

// --------------------------------------------------------- DenseBlock ---

DenseBlock::DenseBlock(std::string name, const Options& opts, Rng& rng)
    : Layer(std::move(name)), opts_(opts) {
  EXACLIM_CHECK(opts_.in_c > 0 && opts_.growth > 0 && opts_.layers > 0,
                this->name() << ": bad dense block options");
  feat_channels_.push_back(opts_.in_c);
  std::int64_t in_c = opts_.in_c;
  for (std::int64_t i = 0; i < opts_.layers; ++i) {
    auto unit = std::make_unique<Sequential>(this->name() + ".unit" +
                                             std::to_string(i));
    unit->Emplace<BatchNorm2d>(unit->name() + ".bn", in_c);
    unit->Emplace<ReLU>(unit->name() + ".relu");
    unit->Emplace<Conv2d>(
        unit->name() + ".conv",
        Conv2d::Options{.in_c = in_c, .out_c = opts_.growth,
                        .kernel = opts_.kernel, .bias = false},
        rng);
    if (opts_.dropout > 0.0f) {
      unit->Emplace<Dropout>(unit->name() + ".drop", opts_.dropout, rng);
    }
    AddChild(*unit);
    units_.push_back(std::move(unit));
    feat_channels_.push_back(opts_.growth);
    in_c += opts_.growth;
  }
  const std::size_t n_feats = feat_channels_.size();
  feats_.resize(n_feats);
  concat_ptrs_.reserve(n_feats);
  feat_grads_.resize(n_feats);
  split_scratch_.resize(n_feats);
}

TensorShape DenseBlock::OutputShape(const TensorShape& input) const {
  EXACLIM_CHECK(input.rank() == 4 && input.c() == opts_.in_c,
                name() << ": bad input " << input.ToString());
  return TensorShape::NCHW(input.n(), out_channels(), input.h(), input.w());
}

Tensor DenseBlock::Forward(const Tensor& input, bool train) {
  (void)OutputShape(input.shape());
  input_shape_ = input.shape();
  feats_[0] = input;  // copy-assign reuses the pooled buffer after warmup
  for (std::size_t i = 0; i < units_.size(); ++i) {
    concat_ptrs_.clear();
    for (std::size_t f = 0; f <= i; ++f) concat_ptrs_.push_back(&feats_[f]);
    const Tensor concat_in = ConcatChannels(concat_ptrs_);
    feats_[i + 1] = units_[i]->Forward(concat_in, train);
  }
  concat_ptrs_.clear();
  for (std::size_t i = opts_.include_input ? 0 : 1; i < feats_.size(); ++i) {
    concat_ptrs_.push_back(&feats_[i]);
  }
  return ConcatChannels(concat_ptrs_);
}

Tensor DenseBlock::Backward(const Tensor& grad_output) {
  EXACLIM_CHECK(input_shape_.rank() == 4,
                name() << ": Backward before Forward");
  EXACLIM_CHECK(grad_output.shape() == OutputShape(input_shape_),
                name() << ": grad shape mismatch");

  // Split the output gradient into per-feature gradients. feat_grads_[0]
  // is the block input's gradient (zero if the input was not emitted).
  // All split destinations are member scratch whose pooled buffers are
  // recycled from the previous step.
  const std::span<const std::int64_t> all_channels(feat_channels_);
  const std::span<Tensor> all_grads(feat_grads_);
  if (opts_.include_input) {
    SplitChannelsInto(grad_output, all_channels, all_grads);
  } else {
    SplitChannelsInto(grad_output, all_channels.subspan(1),
                      all_grads.subspan(1));
    if (feat_grads_[0].shape() != input_shape_) {
      feat_grads_[0] = Tensor(input_shape_);  // zero-filled
    } else {
      feat_grads_[0].SetZero();
    }
  }

  // Walk units in reverse: each unit's input was concat(feats[0..i]), so
  // its input gradient scatters back onto those features.
  for (std::size_t i = units_.size(); i-- > 0;) {
    const Tensor unit_grad_in = units_[i]->Backward(feat_grads_[i + 1]);
    SplitChannelsInto(unit_grad_in, all_channels.first(i + 1),
                      std::span<Tensor>(split_scratch_).first(i + 1));
    for (std::size_t j = 0; j <= i; ++j) {
      feat_grads_[j] += split_scratch_[j];
    }
  }
  return std::move(feat_grads_[0]);
}

// ----------------------------------------------------- TransitionDown ---

TransitionDown::TransitionDown(std::string name, std::int64_t channels,
                               float dropout, Rng& rng)
    : Sequential(std::move(name)) {
  Emplace<BatchNorm2d>(this->name() + ".bn", channels);
  Emplace<ReLU>(this->name() + ".relu");
  Emplace<Conv2d>(this->name() + ".conv",
                  Conv2d::Options{.in_c = channels, .out_c = channels,
                                  .kernel = 1, .pad = 0, .bias = false},
                  rng);
  if (dropout > 0.0f) {
    Emplace<Dropout>(this->name() + ".drop", dropout, rng);
  }
  Emplace<MaxPool2d>(this->name() + ".pool", 2, 2, 0);
}

// ----------------------------------------------------------- Tiramisu ---

Tiramisu::Config Tiramisu::Config::Original() {
  Config c;
  c.growth_rate = 16;
  c.kernel = 3;
  c.down_layers = {2, 2, 2, 4};
  c.bottleneck_layers = 5;
  return c;
}

Tiramisu::Config Tiramisu::Config::Modified() {
  Config c;
  c.growth_rate = 32;
  c.kernel = 5;
  c.down_layers = {1, 1, 1, 2};
  c.bottleneck_layers = 3;
  return c;
}

Tiramisu::Config Tiramisu::Config::Downscaled(std::int64_t in_channels) {
  Config c;
  c.in_channels = in_channels;
  c.first_features = 8;
  c.growth_rate = 4;
  c.kernel = 3;
  c.down_layers = {1, 1};
  c.bottleneck_layers = 1;
  c.dropout = 0.0f;
  return c;
}

Tiramisu::Tiramisu(const Config& config, Rng& rng)
    : Layer("tiramisu"), config_(config) {
  EXACLIM_CHECK(!config_.down_layers.empty(), "tiramisu needs down blocks");
  first_conv_ = std::make_unique<Conv2d>(
      "tiramisu.first",
      Conv2d::Options{.in_c = config_.in_channels,
                      .out_c = config_.first_features,
                      .kernel = config_.kernel, .bias = false},
      rng);

  std::int64_t c = config_.first_features;
  for (std::size_t i = 0; i < config_.down_layers.size(); ++i) {
    const std::string base = "tiramisu.down" + std::to_string(i);
    down_blocks_.push_back(std::make_unique<DenseBlock>(
        base,
        DenseBlock::Options{.in_c = c, .growth = config_.growth_rate,
                            .layers = config_.down_layers[i],
                            .kernel = config_.kernel,
                            .dropout = config_.dropout,
                            .include_input = true},
        rng));
    c = down_blocks_.back()->out_channels();
    skip_channels_.push_back(c);
    downs_.push_back(
        std::make_unique<TransitionDown>(base + ".td", c, config_.dropout,
                                         rng));
  }

  bottleneck_ = std::make_unique<DenseBlock>(
      "tiramisu.bottleneck",
      DenseBlock::Options{.in_c = c, .growth = config_.growth_rate,
                          .layers = config_.bottleneck_layers,
                          .kernel = config_.kernel,
                          .dropout = config_.dropout,
                          .include_input = false},
      rng);
  std::int64_t new_feats = bottleneck_->out_channels();

  for (std::size_t i = config_.down_layers.size(); i-- > 0;) {
    const std::string base = "tiramisu.up" + std::to_string(i);
    ups_.push_back(std::make_unique<ConvTranspose2d>(
        base + ".tu",
        ConvTranspose2d::Options{.in_c = new_feats, .out_c = new_feats,
                                 .kernel = 3, .stride = 2, .pad = 1,
                                 .out_pad = 1, .bias = false},
        rng));
    up_blocks_.push_back(std::make_unique<DenseBlock>(
        base,
        DenseBlock::Options{.in_c = new_feats + skip_channels_[i],
                            .growth = config_.growth_rate,
                            .layers = config_.down_layers[i],
                            .kernel = config_.kernel,
                            .dropout = config_.dropout,
                            .include_input = false},
        rng));
    new_feats = up_blocks_.back()->out_channels();
  }

  final_conv_ = std::make_unique<Conv2d>(
      "tiramisu.final",
      Conv2d::Options{.in_c = new_feats, .out_c = config_.num_classes,
                      .kernel = 1, .pad = 0},
      rng);

  // Grouped by kind, not interleaved along the forward path: this order
  // is the checkpoint layout.
  AddChild(*first_conv_);
  for (auto& b : down_blocks_) AddChild(*b);
  for (auto& d : downs_) AddChild(*d);
  AddChild(*bottleneck_);
  for (auto& u : ups_) AddChild(*u);
  for (auto& b : up_blocks_) AddChild(*b);
  AddChild(*final_conv_);
}

std::int64_t Tiramisu::SpatialDivisor() const {
  return std::int64_t{1} << config_.down_layers.size();
}

TensorShape Tiramisu::OutputShape(const TensorShape& input) const {
  EXACLIM_CHECK(input.rank() == 4 && input.c() == config_.in_channels,
                "tiramisu: bad input " << input.ToString());
  EXACLIM_CHECK(input.h() % SpatialDivisor() == 0 &&
                    input.w() % SpatialDivisor() == 0,
                "tiramisu: H/W must be divisible by " << SpatialDivisor());
  return TensorShape::NCHW(input.n(), config_.num_classes, input.h(),
                           input.w());
}

Tensor Tiramisu::Forward(const Tensor& input, bool train) {
  (void)OutputShape(input.shape());
  skips_.clear();
  Tensor x = first_conv_->Forward(input, train);
  for (std::size_t i = 0; i < down_blocks_.size(); ++i) {
    x = down_blocks_[i]->Forward(x, train);
    skips_.push_back(x);
    x = downs_[i]->Forward(x, train);
  }
  x = bottleneck_->Forward(x, train);
  // ups_/up_blocks_ are stored deepest-first; skips_ shallow-first.
  for (std::size_t u = 0; u < ups_.size(); ++u) {
    const std::size_t skip_idx = ups_.size() - 1 - u;
    x = ups_[u]->Forward(x, train);
    x = ConcatChannels(x, skips_[skip_idx]);
    x = up_blocks_[u]->Forward(x, train);
  }
  return final_conv_->Forward(x, train);
}

Tensor Tiramisu::Backward(const Tensor& grad_output) {
  // Each child is announced grad-ready right after its Backward — the
  // overlap hooks of DESIGN §14 (no-ops without a listener installed).
  Tensor g = BackwardChild(*final_conv_, grad_output);
  skip_grads_.resize(skips_.size());  // capacity-stable after warmup
  for (std::size_t u = up_blocks_.size(); u-- > 0;) {
    const std::size_t skip_idx = ups_.size() - 1 - u;
    g = BackwardChild(*up_blocks_[u], g);
    const std::array<std::int64_t, 2> channels{
        g.shape().c() - skip_channels_[skip_idx], skip_channels_[skip_idx]};
    SplitChannelsInto(g, channels, up_split_);
    skip_grads_[skip_idx] = std::move(up_split_[1]);
    g = BackwardChild(*ups_[u], up_split_[0]);
  }
  g = BackwardChild(*bottleneck_, g);
  for (std::size_t i = down_blocks_.size(); i-- > 0;) {
    g = BackwardChild(*downs_[i], g);
    g += skip_grads_[i];
    g = BackwardChild(*down_blocks_[i], g);
  }
  return BackwardChild(*first_conv_, g);
}

}  // namespace exaclim
