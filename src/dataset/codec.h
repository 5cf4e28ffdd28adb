// Binary codec for one dataset Sample — the record format of RNDS1 shards
// (shard.h):
//
//   u32 name_len + name bytes
//   i32 num_nodes, i32 num_links
//   num_links × { i32 src, i32 dst, f64 capacity_bps, f64 prop_delay_s }
//   num_pairs × { u32 path_len + path_len × i32 link ids }
//   num_pairs × f64 rate_bps
//   num_pairs × { f64 delay_s, f64 jitter_s, u8 valid }
//   f64 max_link_utilization
//
// The first three lines are the topology encoding, which config_fingerprint
// also hashes. The decoder reads through util/bytes.h's ByteReader: every
// declared count is validated against the bytes actually remaining BEFORE
// anything is allocated, and every id/value is range-checked. A truncated,
// bit-flipped, or adversarial record throws std::runtime_error; it never
// over-allocates or reads past the buffer.
#pragma once

#include <string>

#include "dataset/dataset.h"
#include "util/bytes.h"

namespace rn::dataset {

// Appends the topology encoding (name, node and link counts, link table).
void encode_topology(std::string& out, const topo::Topology& t);

// Appends the canonical record for one sample to `out`.
void encode_sample(std::string& out, const Sample& s);

// Decodes one record from the reader's current position. Throws
// std::runtime_error on any structural problem.
Sample decode_sample(ByteReader& in);

}  // namespace rn::dataset
