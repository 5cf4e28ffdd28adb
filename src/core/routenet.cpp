#include "core/routenet.h"

#include <algorithm>

#include "ag/serialize.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace rn::core {

namespace {

// Pads an N×1 feature column into an N×dim initial hidden state
// (feature in column 0, zeros elsewhere), as in the reference RouteNet.
ag::Tensor pad_initial_state(const ag::Tensor& features, int dim) {
  RN_CHECK(features.cols() == 1, "expected a feature column");
  RN_CHECK(dim >= 1, "state dim must be positive");
  ag::Tensor state(features.rows(), dim);
  for (int r = 0; r < features.rows(); ++r) {
    state.at(r, 0) = features.at(r, 0);
  }
  return state;
}

}  // namespace

RouteNet::RouteNet(const RouteNetConfig& config)
    : config_(config),
      init_rng_(config.seed),
      path_cell_(config.link_state_dim, config.path_state_dim, init_rng_,
                 "routenet.path_gru"),
      link_cell_(config.path_state_dim, config.link_state_dim, init_rng_,
                 "routenet.link_gru"),
      delay_readout_({config.path_state_dim, config.readout_hidden, 1},
                     init_rng_, "routenet.delay_readout"),
      jitter_readout_({config.path_state_dim, config.readout_hidden, 1},
                      init_rng_, "routenet.jitter_readout") {
  RN_CHECK(config.link_state_dim >= 1 && config.path_state_dim >= 1,
           "state dims must be positive");
  RN_CHECK(config.iterations >= 1, "need at least one message-passing round");
}

RouteNet::Output RouteNet::forward(ag::Tape& tape, const GraphBatch& batch,
                                   Rng* dropout_rng) const {
  RN_CHECK(batch.num_links > 0 && batch.num_paths > 0, "empty graph batch");
  // Message-passing phase timings. References are looked up once per
  // process (function-local statics); per-forward cost is a handful of
  // steady_clock reads — negligible against the tensor work they bracket.
  static obs::Histogram& h_forward =
      obs::Registry::global().histogram("routenet.forward_s");
  static obs::Histogram& h_path_phase =
      obs::Registry::global().histogram("routenet.mp.path_update_s");
  static obs::Histogram& h_link_phase =
      obs::Registry::global().histogram("routenet.mp.link_update_s");
  static obs::Histogram& h_readout =
      obs::Registry::global().histogram("routenet.readout_s");
  obs::ScopedTimer forward_timer(h_forward);
  obs::TraceSpan forward_span("routenet.forward");
  double path_phase_s = 0.0;
  double link_phase_s = 0.0;

  ag::ValueId h_links = tape.constant(
      pad_initial_state(batch.link_features, config_.link_state_dim));
  ag::ValueId h_paths = tape.constant(
      pad_initial_state(batch.path_features, config_.path_state_dim));

  // The hop → link assignment is a property of the batch, not of the
  // iteration: hoist the flattened link list and the mean-aggregation
  // inverse counts out of the message-passing loop instead of recomputing
  // them config_.iterations times.
  std::vector<int> message_links;
  for (int s = 0; s < batch.max_path_length(); ++s) {
    const std::vector<int>& links = batch.pos_links[static_cast<std::size_t>(s)];
    if (batch.pos_paths[static_cast<std::size_t>(s)].empty()) continue;
    message_links.insert(message_links.end(), links.begin(), links.end());
  }
  std::vector<float> inv_count;
  if (config_.aggregation == Aggregation::kMean) {
    inv_count.assign(static_cast<std::size_t>(batch.num_links), 0.0f);
    for (int l : message_links) inv_count[static_cast<std::size_t>(l)] += 1.0f;
    for (float& f : inv_count) {
      if (f > 0.0f) f = 1.0f / f;
    }
  }

  for (int t = 0; t < config_.iterations; ++t) {
    obs::TraceSpan mp_span("routenet.mp");
    mp_span.arg("iter", t);
    obs::Stopwatch phase;
    // Path update: vectorized RNN over hop positions. All paths that are at
    // least s+1 hops long advance together at position s.
    std::vector<ag::ValueId> messages;
    for (int s = 0; s < batch.max_path_length(); ++s) {
      const std::vector<int>& paths = batch.pos_paths[static_cast<std::size_t>(s)];
      const std::vector<int>& links = batch.pos_links[static_cast<std::size_t>(s)];
      if (paths.empty()) continue;
      const ag::ValueId h_next =
          path_cell_.step_gathered(tape, h_links, links, h_paths, paths);
      h_paths = tape.scatter_rows(h_paths, paths, h_next);
      // The post-hop path state is the message this hop sends to its link.
      messages.push_back(h_next);
    }
    path_phase_s += phase.elapsed_s();
    phase.restart();
    // Link update: combine the messages that crossed each link, GRU step.
    RN_CHECK(!messages.empty(), "batch has no path traversals");
    const ag::ValueId stacked = tape.concat_rows(messages);
    ag::ValueId aggregated =
        tape.segment_sum(stacked, message_links, batch.num_links);
    if (config_.aggregation == Aggregation::kMean) {
      aggregated = tape.scale_rows(aggregated, inv_count);
    }
    h_links = link_cell_.step(tape, aggregated, h_links);
    link_phase_s += phase.elapsed_s();
  }
  h_path_phase.record(path_phase_s);
  h_link_phase.record(link_phase_s);

  obs::ScopedTimer readout_timer(h_readout);
  obs::TraceSpan readout_span("routenet.readout");
  if (dropout_rng != nullptr && config_.dropout > 0.0f) {
    h_paths = tape.dropout(h_paths, config_.dropout, *dropout_rng);
  }
  Output out;
  out.delay = delay_readout_.apply(tape, h_paths);
  out.jitter = jitter_readout_.apply(tape, h_paths);
  return out;
}

RouteNet::Prediction RouteNet::predict(const dataset::Sample& sample) const {
  const GraphBatch batch =
      GraphBatch::from_sample(sample, norm_, /*with_targets=*/false);
  ag::Tape tape;
  const Output out = forward(tape, batch);
  const ag::Tensor& delay = tape.value(out.delay);
  const ag::Tensor& jitter = tape.value(out.jitter);
  Prediction pred;
  pred.delay_s.resize(static_cast<std::size_t>(batch.num_paths));
  pred.jitter_s.resize(static_cast<std::size_t>(batch.num_paths));
  for (int i = 0; i < batch.num_paths; ++i) {
    pred.delay_s[static_cast<std::size_t>(i)] =
        norm_.denormalize_delay(delay.at(i, 0));
    pred.jitter_s[static_cast<std::size_t>(i)] =
        norm_.denormalize_jitter(jitter.at(i, 0));
  }
  return pred;
}

std::vector<RouteNet::Prediction> RouteNet::predict_batch(
    const std::vector<dataset::Sample>& samples, int batch_size) const {
  RN_CHECK(batch_size >= 1, "batch size must be positive");
  std::vector<Prediction> out;
  out.reserve(samples.size());
  for (std::size_t start = 0; start < samples.size();
       start += static_cast<std::size_t>(batch_size)) {
    const std::size_t end = std::min(
        samples.size(), start + static_cast<std::size_t>(batch_size));
    std::vector<const dataset::Sample*> chunk;
    chunk.reserve(end - start);
    for (std::size_t i = start; i < end; ++i) chunk.push_back(&samples[i]);
    std::vector<Prediction> merged = predict_merged(chunk);
    for (Prediction& pred : merged) out.push_back(std::move(pred));
  }
  return out;
}

std::vector<RouteNet::Prediction> RouteNet::predict_merged(
    const std::vector<const dataset::Sample*>& samples) const {
  RN_CHECK(!samples.empty(), "predict_merged needs at least one sample");
  const GraphBatch batch =
      GraphBatch::from_samples(samples, norm_, /*with_targets=*/false);
  ag::Tape tape;
  const Output fwd = forward(tape, batch);
  const ag::Tensor& delay = tape.value(fwd.delay);
  const ag::Tensor& jitter = tape.value(fwd.jitter);
  std::vector<Prediction> out;
  out.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const int offset = batch.path_offset[i];
    const int pairs = samples[i]->num_pairs();
    Prediction pred;
    pred.delay_s.resize(static_cast<std::size_t>(pairs));
    pred.jitter_s.resize(static_cast<std::size_t>(pairs));
    for (int p = 0; p < pairs; ++p) {
      pred.delay_s[static_cast<std::size_t>(p)] =
          norm_.denormalize_delay(delay.at(offset + p, 0));
      pred.jitter_s[static_cast<std::size_t>(p)] =
          norm_.denormalize_jitter(jitter.at(offset + p, 0));
    }
    out.push_back(std::move(pred));
  }
  return out;
}

std::vector<ag::Parameter*> RouteNet::params() {
  std::vector<ag::Parameter*> out;
  for (ag::Parameter* p : path_cell_.params()) out.push_back(p);
  for (ag::Parameter* p : link_cell_.params()) out.push_back(p);
  for (ag::Parameter* p : delay_readout_.params()) out.push_back(p);
  for (ag::Parameter* p : jitter_readout_.params()) out.push_back(p);
  return out;
}

std::size_t RouteNet::num_parameters() const {
  std::size_t total = 0;
  for (ag::Parameter* p : const_cast<RouteNet*>(this)->params()) {
    total += static_cast<std::size_t>(p->value.size());
  }
  return total;
}

namespace {
constexpr char kModelMagic[] = "RNMODEL4";
}  // namespace

void RouteNet::save(const std::string& path) const {
  std::string payload;
  put_pod(payload, config_.link_state_dim);
  put_pod(payload, config_.path_state_dim);
  put_pod(payload, config_.iterations);
  put_pod(payload, config_.readout_hidden);
  put_pod(payload, config_.aggregation);
  put_pod(payload, config_.dropout);
  put_pod(payload, config_.seed);
  put_pod(payload, norm_.capacity_scale);
  put_pod(payload, norm_.traffic_scale);
  put_pod(payload, static_cast<std::uint8_t>(norm_.log_space ? 1 : 0));
  put_pod(payload, norm_.log_delay_mean);
  put_pod(payload, norm_.log_delay_std);
  put_pod(payload, norm_.log_jitter_mean);
  put_pod(payload, norm_.log_jitter_std);
  ag::NamedTensors named;
  for (const ag::Parameter* p : const_cast<RouteNet*>(this)->params()) {
    named.emplace_back(p->name, p->value);
  }
  ag::put_named_tensors(payload, named);
  // Temp file + rename: a crash mid-save (e.g. during the trainer's
  // best-model checkpoint) never leaves a torn file behind.
  atomic_write_file(path, seal(kModelMagic, payload));
}

RouteNet RouteNet::load(const std::string& path) {
  const std::string bytes = read_file(path);
  ByteReader in(unseal(bytes, kModelMagic, path), path);
  RouteNetConfig config;
  config.link_state_dim = in.pod<int>("link state dim");
  config.path_state_dim = in.pod<int>("path state dim");
  config.iterations = in.pod<int>("iterations");
  config.readout_hidden = in.pod<int>("readout hidden width");
  config.aggregation = in.pod<Aggregation>("aggregation");
  config.dropout = in.pod<float>("dropout");
  config.seed = in.pod<std::uint64_t>("seed");
  dataset::Normalizer norm;
  norm.capacity_scale = in.pod<double>("capacity scale");
  norm.traffic_scale = in.pod<double>("traffic scale");
  norm.log_space = in.pod<std::uint8_t>("log-space flag") != 0;
  norm.log_delay_mean = in.pod<double>("log delay mean");
  norm.log_delay_std = in.pod<double>("log delay std");
  norm.log_jitter_mean = in.pod<double>("log jitter mean");
  norm.log_jitter_std = in.pod<double>("log jitter std");
  const ag::NamedTensors named = ag::get_named_tensors(in);
  in.expect_done("the parameters");
  RouteNet model(config);
  model.set_normalizer(norm);
  ag::apply_named_tensors(named, model.params(), "model file " + path);
  return model;
}

}  // namespace rn::core
