#include "dataset/codec.h"

#include <cmath>

#include "util/check.h"

namespace rn::dataset {

namespace {

// Sanity ceilings for untrusted declared counts. Generous versus anything
// the paper (or this repo) generates, tight enough that a flipped high bit
// fails the arithmetic below instead of driving a multi-GB allocation.
constexpr std::size_t kMaxNameLen = 4096;
constexpr std::int32_t kMaxNodes = 16384;  // pairs fits comfortably in int32

bool finite_nonneg(double x) { return std::isfinite(x) && x >= 0.0; }

}  // namespace

void encode_topology(std::string& out, const topo::Topology& t) {
  put_str<std::uint32_t>(out, t.name());
  put_pod(out, static_cast<std::int32_t>(t.num_nodes()));
  put_pod(out, static_cast<std::int32_t>(t.num_links()));
  for (const topo::Link& l : t.links()) {
    put_pod(out, static_cast<std::int32_t>(l.src));
    put_pod(out, static_cast<std::int32_t>(l.dst));
    put_pod(out, l.capacity_bps);
    put_pod(out, l.prop_delay_s);
  }
}

void encode_sample(std::string& out, const Sample& s) {
  RN_CHECK(s.topology != nullptr, "cannot encode a sample with no topology");
  const topo::Topology& t = *s.topology;
  encode_topology(out, t);
  for (int idx = 0; idx < t.num_pairs(); ++idx) {
    const routing::Path& p = s.routing.path_by_index(idx);
    put_pod(out, static_cast<std::uint32_t>(p.size()));
    for (topo::LinkId id : p) put_pod(out, static_cast<std::int32_t>(id));
  }
  for (int idx = 0; idx < t.num_pairs(); ++idx) {
    put_pod(out, s.tm.rate_by_index(idx));
  }
  for (int idx = 0; idx < t.num_pairs(); ++idx) {
    put_pod(out, s.delay_s[static_cast<std::size_t>(idx)]);
    put_pod(out, s.jitter_s[static_cast<std::size_t>(idx)]);
    put_pod(out, s.valid[static_cast<std::size_t>(idx)]);
  }
  put_pod(out, s.max_link_utilization);
}

Sample decode_sample(ByteReader& in) {
  const std::string name =
      in.str<std::uint32_t>(kMaxNameLen, "topology name");
  const auto num_nodes = in.pod<std::int32_t>("node count");
  const auto num_links = in.pod<std::int32_t>("link count");
  if (num_nodes < 1 || num_nodes > kMaxNodes) {
    in.fail("node count " + std::to_string(num_nodes) + " out of [1, " +
            std::to_string(kMaxNodes) + "]");
  }
  // Each link record is 24 bytes; validate against the bytes actually
  // present before building anything.
  constexpr std::size_t kLinkBytes = 4 + 4 + 8 + 8;
  if (num_links < 0 ||
      static_cast<std::size_t>(num_links) > in.remaining() / kLinkBytes) {
    in.fail("link count " + std::to_string(num_links) +
            " inconsistent with remaining bytes");
  }
  auto topology = std::make_shared<topo::Topology>(name, num_nodes);
  for (std::int32_t l = 0; l < num_links; ++l) {
    const auto src = in.pod<std::int32_t>("link src");
    const auto dst = in.pod<std::int32_t>("link dst");
    const auto cap = in.pod<double>("link capacity");
    const auto prop = in.pod<double>("link prop delay");
    if (src < 0 || src >= num_nodes || dst < 0 || dst >= num_nodes) {
      in.fail("link endpoint out of range");
    }
    if (!std::isfinite(cap) || cap <= 0.0 || !finite_nonneg(prop)) {
      in.fail("non-finite or non-positive link parameters");
    }
    topology->add_link(src, dst, cap, prop);
  }
  const int pairs = topology->num_pairs();
  routing::RoutingScheme scheme(num_nodes);
  for (int idx = 0; idx < pairs; ++idx) {
    const auto len = in.pod<std::uint32_t>("path length");
    // k-shortest paths are simple, so a path can never repeat a link.
    if (len > static_cast<std::uint32_t>(num_links)) {
      in.fail("path length " + std::to_string(len) + " exceeds link count");
    }
    in.require(static_cast<std::size_t>(len) * 4, "path link ids");
    routing::Path p(len);
    for (auto& id : p) {
      const auto raw = in.pod<std::int32_t>("path link id");
      if (raw < 0 || raw >= num_links) in.fail("path link id out of range");
      id = raw;
    }
    const auto [src, dst] = topo::pair_from_index(idx, num_nodes);
    scheme.set_path(src, dst, std::move(p));
  }
  traffic::TrafficMatrix tm(num_nodes);
  in.require(static_cast<std::size_t>(pairs) * 8, "traffic rates");
  for (int idx = 0; idx < pairs; ++idx) {
    const auto [src, dst] = topo::pair_from_index(idx, num_nodes);
    const auto rate = in.pod<double>("traffic rate");
    if (!finite_nonneg(rate)) in.fail("non-finite traffic rate");
    tm.set_rate_bps(src, dst, rate);
  }
  Sample s{std::move(topology), std::move(scheme), std::move(tm),
           {},  {},  {},  0.0};
  in.require(static_cast<std::size_t>(pairs) * (8 + 8 + 1), "path targets");
  s.delay_s.resize(static_cast<std::size_t>(pairs));
  s.jitter_s.resize(static_cast<std::size_t>(pairs));
  s.valid.resize(static_cast<std::size_t>(pairs));
  for (int idx = 0; idx < pairs; ++idx) {
    const auto delay = in.pod<double>("delay target");
    const auto jitter = in.pod<double>("jitter target");
    const auto valid = in.pod<std::uint8_t>("validity flag");
    if (!finite_nonneg(delay) || !finite_nonneg(jitter)) {
      in.fail("non-finite path target");
    }
    if (valid > 1) in.fail("validity flag out of {0, 1}");
    s.delay_s[static_cast<std::size_t>(idx)] = delay;
    s.jitter_s[static_cast<std::size_t>(idx)] = jitter;
    s.valid[static_cast<std::size_t>(idx)] = valid;
  }
  s.max_link_utilization = in.pod<double>("max link utilization");
  if (!finite_nonneg(s.max_link_utilization)) {
    in.fail("non-finite max link utilization");
  }
  return s;
}

}  // namespace rn::dataset
