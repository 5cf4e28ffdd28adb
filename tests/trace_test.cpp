// Tests for the src/obs hierarchical span tracer: automatic nesting via
// thread-local stacks, cross-thread propagation through parallel_for (1 and
// 4 threads, tsan-labeled), the Chrome trace-event exporter re-parsed with
// the strict JSON parser, merge-on-resume, the spill path under sustained
// span volume, and the zero-allocation guarantee of the disabled path.
#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "par/thread_pool.h"

// Global allocation counter (same pattern as obs_test): every operator new
// in this binary bumps it, so tests can prove a code path never allocates.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Not inlined: once inlined into a std:: container, GCC pairs the free()
// with the container's operator new call and warns of a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace rn::obs {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "trace_" + name;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { Tracer::global().reset_for_tests(); }
  void TearDown() override { Tracer::global().reset_for_tests(); }
};

// Records indexed by span id, for parentage checks.
std::map<std::uint64_t, TraceRecord> by_id(
    const std::vector<TraceRecord>& records) {
  std::map<std::uint64_t, TraceRecord> out;
  for (const TraceRecord& r : records) out[r.id] = r;
  return out;
}

TEST_F(TraceTest, SpansNestViaThreadLocalStack) {
  Tracer::global().enable();
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    TraceSpan outer("outer");
    outer_id = outer.id();
    EXPECT_EQ(trace_current_span(), outer_id);
    {
      TraceSpan inner("inner");
      inner_id = inner.id();
      EXPECT_EQ(trace_current_span(), inner_id);
    }
    EXPECT_EQ(trace_current_span(), outer_id);
  }
  EXPECT_EQ(trace_current_span(), 0u);

  const auto records = by_id(Tracer::global().collect());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records.at(outer_id).parent, 0u);
  EXPECT_EQ(records.at(inner_id).parent, outer_id);
  EXPECT_STREQ(records.at(inner_id).name, "inner");
  EXPECT_GE(records.at(outer_id).dur_s, records.at(inner_id).dur_s);
}

TEST_F(TraceTest, EndIsIdempotentAndArgsAreRecorded) {
  Tracer::global().enable();
  TraceSpan span("with_arg");
  span.arg("batch", 41);
  span.arg("batch", 42);  // last call wins
  span.end();
  span.end();  // no-op
  const std::vector<TraceRecord> records = Tracer::global().collect();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].arg_key, "batch");
  EXPECT_EQ(records[0].arg_val, 42);
}

TEST_F(TraceTest, ExplicitParentWinsOverThreadStack) {
  Tracer::global().enable();
  TraceSpan a("a");
  {
    TraceSpan b("b", /*parent=*/12345);
    EXPECT_NE(b.id(), 0u);
  }
  a.end();
  const std::vector<TraceRecord> records = Tracer::global().collect();
  for (const TraceRecord& r : records) {
    if (std::string(r.name) == "b") {
      EXPECT_EQ(r.parent, 12345u);
    }
  }
}

// Worker chunks must nest under the caller's open span with the worker's
// own tid — the cross-thread propagation contract. Runs at both pool
// widths: 1 thread takes the inline path, 4 threads the submit path.
void run_parallel_for_nesting(int threads) {
  par::set_global_threads(threads);
  Tracer::global().reset_for_tests();
  Tracer::global().enable();

  std::uint64_t root_id = 0;
  {
    TraceSpan root("loop_root");
    root_id = root.id();
    par::parallel_for(0, 64, /*grain=*/1, [](std::int64_t lo,
                                             std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        TraceSpan work("work");
        work.arg("i", i);
      }
    });
  }

  const std::vector<TraceRecord> records = Tracer::global().collect();
  const auto index = by_id(records);
  std::size_t chunks = 0;
  std::size_t works = 0;
  std::set<std::uint32_t> tids;
  for (const TraceRecord& r : records) {
    tids.insert(r.tid);
    if (std::string(r.name) == "par.chunk") {
      ++chunks;
      EXPECT_EQ(r.parent, root_id) << "chunk not parented to caller span";
    }
    if (std::string(r.name) == "work") {
      ++works;
      ASSERT_NE(index.find(r.parent), index.end());
      EXPECT_STREQ(index.at(r.parent).name, "par.chunk")
          << "work span must nest under its chunk";
      // The automatic (stack) parent must live on the same thread.
      EXPECT_EQ(index.at(r.parent).tid, r.tid);
    }
  }
  EXPECT_GE(chunks, 1u);
  EXPECT_EQ(works, 64u);
  EXPECT_EQ(Tracer::global().dropped(), 0u);
}

TEST_F(TraceTest, ParallelForPropagatesSpanAtOneThread) {
  run_parallel_for_nesting(1);
}

TEST_F(TraceTest, ParallelForPropagatesSpanAtFourThreads) {
  run_parallel_for_nesting(4);
}

TEST_F(TraceTest, ChromeExportParsesAndCarriesHierarchy) {
  Tracer::global().enable();
  {
    TraceSpan outer("outer");
    TraceSpan inner("inner");
    inner.arg("k", 7);
  }
  const std::string path = temp_path("export.json");
  Tracer::write_chrome_trace(path, Tracer::global().collect());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  JsonValue root;
  std::string err;
  ASSERT_TRUE(parse_json(text, &root, &err)) << err;
  ASSERT_TRUE(root.is_object());
  const JsonValue* unit = root.find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string, "ms");
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, JsonValue::Type::kArray);
  ASSERT_EQ(events->array.size(), 2u);

  std::map<double, const JsonValue*> by_span_id;
  for (const JsonValue& ev : events->array) {
    ASSERT_TRUE(ev.is_object());
    EXPECT_EQ(ev.find("ph")->string, "X");
    EXPECT_EQ(ev.find("pid")->number, 1.0);
    ASSERT_NE(ev.find("name"), nullptr);
    ASSERT_NE(ev.find("tid"), nullptr);
    ASSERT_TRUE(ev.find("ts")->is_number());
    ASSERT_TRUE(ev.find("dur")->is_number());
    EXPECT_GE(ev.find("dur")->number, 0.0);
    const JsonValue* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_NE(args->find("id"), nullptr);
    ASSERT_NE(args->find("parent"), nullptr);
    by_span_id[args->find("id")->number] = &ev;
  }
  // The inner span's parent id resolves to the outer event.
  for (const JsonValue& ev : events->array) {
    if (ev.find("name")->string != "inner") continue;
    const double parent = ev.find("args")->find("parent")->number;
    ASSERT_NE(by_span_id.find(parent), by_span_id.end());
    EXPECT_EQ(by_span_id.at(parent)->find("name")->string, "outer");
    EXPECT_EQ(ev.find("args")->find("k")->number, 7.0);
  }
}

TEST_F(TraceTest, MergeExistingAppendsToAPriorExport) {
  const std::string path = temp_path("merge.json");
  Tracer::global().enable();
  { TraceSpan first("first_run"); }
  Tracer::write_chrome_trace(path, Tracer::global().collect());

  { TraceSpan second("second_run"); }
  Tracer::write_chrome_trace(path, Tracer::global().collect(),
                             /*merge_existing=*/true);

  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  JsonValue root;
  std::string err;
  ASSERT_TRUE(parse_json(text, &root, &err)) << err;
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);
  std::set<std::string> names;
  for (const JsonValue& ev : events->array) {
    names.insert(ev.find("name")->string);
  }
  EXPECT_TRUE(names.count("first_run"));
  EXPECT_TRUE(names.count("second_run"));

  // Without the flag the old events are gone (fresh-run truncation).
  { TraceSpan third("third_run"); }
  Tracer::write_chrome_trace(path, Tracer::global().collect());
  std::ifstream in2(path);
  std::string text2((std::istreambuf_iterator<char>(in2)),
                    std::istreambuf_iterator<char>());
  ASSERT_TRUE(parse_json(text2, &root, &err)) << err;
  EXPECT_EQ(root.find("traceEvents")->array.size(), 1u);
}

TEST_F(TraceTest, DisabledPathDoesNotAllocateOrRecord) {
  ASSERT_FALSE(Tracer::global().enabled());
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    TraceSpan span("never.recorded");
    span.arg("i", i);
    (void)trace_current_span();
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before)
      << "disabled TraceSpan must not allocate";
  // And nothing was written to any ring.
  EXPECT_TRUE(Tracer::global().collect().empty());
  EXPECT_EQ(Tracer::global().dropped(), 0u);
}

TEST_F(TraceTest, SustainedVolumeSpillsWithoutDropping) {
  Tracer::global().enable();
  // Far beyond one ring's capacity: the half-full spill must hand records
  // to the collector so nothing is lost.
  constexpr int kSpans = 100'000;
  for (int i = 0; i < kSpans; ++i) {
    TraceSpan span("hot");
  }
  const std::vector<TraceRecord> records = Tracer::global().collect();
  EXPECT_EQ(records.size(), static_cast<std::size_t>(kSpans));
  EXPECT_EQ(Tracer::global().dropped(), 0u);
  // Ids are unique process-wide.
  std::set<std::uint64_t> ids;
  for (const TraceRecord& r : records) ids.insert(r.id);
  EXPECT_EQ(ids.size(), records.size());
}

TEST_F(TraceTest, SummaryJsonParsesAndCountsByName) {
  Tracer::global().enable();
  {
    TraceSpan a("alpha");
    TraceSpan b("beta");
  }
  { TraceSpan a2("alpha"); }
  const std::vector<TraceRecord> records = Tracer::global().collect();
  const std::string json = trace_summary_json(records, /*dropped=*/3);
  JsonValue root;
  std::string err;
  ASSERT_TRUE(parse_json(json, &root, &err)) << err << "\n" << json;
  EXPECT_EQ(root.find("spans")->number, 3.0);
  EXPECT_EQ(root.find("dropped")->number, 3.0);
  const JsonValue* by_name = root.find("by_name");
  ASSERT_NE(by_name, nullptr);
  const JsonValue* alpha = by_name->find("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->find("count")->number, 2.0);
  EXPECT_GE(alpha->find("total_s")->number, 0.0);
  EXPECT_GE(alpha->find("self_s")->number, 0.0);
}

TEST_F(TraceTest, SummarizeTraceFileReportsTopSpansAndThrowsOnBadInput) {
  Tracer::global().enable();
  {
    TraceSpan outer("outer");
    TraceSpan inner("inner");
  }
  const std::string path = temp_path("summary.json");
  Tracer::write_chrome_trace(path, Tracer::global().collect());
  const std::string summary = summarize_trace_file(path, /*top_n=*/5);
  EXPECT_NE(summary.find("2 spans"), std::string::npos) << summary;
  EXPECT_NE(summary.find("outer"), std::string::npos);
  EXPECT_NE(summary.find("inner"), std::string::npos);
  EXPECT_NE(summary.find("util"), std::string::npos);

  EXPECT_THROW(summarize_trace_file(temp_path("missing.json")),
               std::runtime_error);
  const std::string bad = temp_path("bad.json");
  {
    std::ofstream out(bad);
    out << "not json at all";
  }
  EXPECT_THROW(summarize_trace_file(bad), std::runtime_error);
  const std::string no_events = temp_path("no_events.json");
  {
    std::ofstream out(no_events);
    out << "{\"displayTimeUnit\":\"ms\"}";
  }
  EXPECT_THROW(summarize_trace_file(no_events), std::runtime_error);
}

// The min-duration filter suppresses quick spans at close time but keeps
// their (necessarily longer) parents, and counts every suppression.
TEST_F(TraceTest, MinDurationFilterDropsShortSpansButKeepsParents) {
  Tracer::global().set_min_duration_s(0.002);
  Tracer::global().enable();
  std::uint64_t parent_id = 0;
  {
    TraceSpan parent("slow_parent");
    parent_id = parent.id();
    for (int i = 0; i < 10; ++i) {
      TraceSpan child("fast_child");  // closes in microseconds
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::vector<TraceRecord> records = Tracer::global().collect();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].name, "slow_parent");
  EXPECT_EQ(records[0].id, parent_id);
  EXPECT_EQ(Tracer::global().sampled_out(), 10u);
  EXPECT_EQ(Tracer::global().dropped(), 0u);

  // The suppressed children never disturbed the nesting stack: a sibling
  // opened after them still parents to the enclosing span.
  {
    TraceSpan outer("outer2");
    const std::uint64_t outer_id = outer.id();
    { TraceSpan quick("quick"); }  // suppressed
    {
      TraceSpan sib("sibling");
      EXPECT_EQ(trace_current_span(), sib.id());
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    EXPECT_EQ(trace_current_span(), outer_id);
  }
  const auto again = by_id(Tracer::global().collect());
  bool saw_sibling = false;
  for (const auto& [id, r] : again) {
    if (std::string(r.name) == "sibling") {
      saw_sibling = true;
      ASSERT_NE(again.find(r.parent), again.end());
      EXPECT_STREQ(again.at(r.parent).name, "outer2");
    }
  }
  EXPECT_TRUE(saw_sibling);
}

TEST_F(TraceTest, SamplingSpecKeepsOneInNPerPrefix) {
  Tracer::global().set_sampling_spec("hot=4,warm=2");
  Tracer::global().enable();
  for (int i = 0; i < 8; ++i) {
    TraceSpan span("hot.loop");  // matches "hot" by prefix
  }
  for (int i = 0; i < 4; ++i) {
    TraceSpan span("warm.step");
  }
  { TraceSpan span("cold.unsampled"); }  // no rule: always recorded
  const std::vector<TraceRecord> records = Tracer::global().collect();
  std::size_t hot = 0;
  std::size_t warm = 0;
  std::size_t cold = 0;
  for (const TraceRecord& r : records) {
    const std::string name(r.name);
    hot += name == "hot.loop" ? 1 : 0;
    warm += name == "warm.step" ? 1 : 0;
    cold += name == "cold.unsampled" ? 1 : 0;
  }
  EXPECT_EQ(hot, 2u);   // spans 0 and 4 of 8
  EXPECT_EQ(warm, 2u);  // spans 0 and 2 of 4
  EXPECT_EQ(cold, 1u);
  EXPECT_EQ(Tracer::global().sampled_out(), 8u);  // 6 hot + 2 warm
}

TEST_F(TraceTest, SamplingSpecValidationAndImmutabilityOnceEnabled) {
  EXPECT_THROW(Tracer::global().set_sampling_spec("no_rate"),
               std::runtime_error);
  EXPECT_THROW(Tracer::global().set_sampling_spec("hot=0"),
               std::runtime_error);
  EXPECT_THROW(Tracer::global().set_sampling_spec("=4"), std::runtime_error);
  EXPECT_THROW(Tracer::global().set_min_duration_s(-1.0), std::runtime_error);
  Tracer::global().enable();
  EXPECT_THROW(Tracer::global().set_sampling_spec("hot=4"),
               std::runtime_error);
  // reset_for_tests clears sampling state for the next test.
  Tracer::global().reset_for_tests();
  EXPECT_EQ(Tracer::global().sampled_out(), 0u);
  EXPECT_EQ(Tracer::global().min_duration_s(), 0.0);
}

TEST_F(TraceTest, ExportCarriesSampledOutAndSummarizeReportsIt) {
  Tracer::global().set_sampling_spec("chatty=2");
  Tracer::global().enable();
  { TraceSpan keep("kept_span"); }
  for (int i = 0; i < 4; ++i) {
    TraceSpan span("chatty.op");
  }
  const std::string path = temp_path("sampled.json");
  Tracer::write_chrome_trace(path, Tracer::global().collect(),
                             /*merge_existing=*/false,
                             Tracer::global().dropped(),
                             Tracer::global().sampled_out());
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  JsonValue root;
  std::string err;
  ASSERT_TRUE(parse_json(text, &root, &err)) << err;
  ASSERT_NE(root.find("rnSampledOut"), nullptr);
  EXPECT_EQ(root.find("rnSampledOut")->number, 2.0);
  ASSERT_NE(root.find("rnDropped"), nullptr);
  EXPECT_EQ(root.find("rnDropped")->number, 0.0);

  // The CLI rollup surfaces the loss so a filtered trace stays honest.
  const std::string summary = summarize_trace_file(path);
  EXPECT_NE(summary.find("sampled out"), std::string::npos) << summary;
  EXPECT_NE(summary.find("3 spans"), std::string::npos) << summary;

  // Merging a second export accumulates the recording losses.
  Tracer::global().reset_for_tests();
  Tracer::global().enable();
  { TraceSpan more("second_run"); }
  Tracer::write_chrome_trace(path, Tracer::global().collect(),
                             /*merge_existing=*/true, /*dropped=*/1,
                             /*sampled_out=*/5);
  std::ifstream in2(path);
  std::string text2((std::istreambuf_iterator<char>(in2)),
                    std::istreambuf_iterator<char>());
  ASSERT_TRUE(parse_json(text2, &root, &err)) << err;
  EXPECT_EQ(root.find("rnSampledOut")->number, 7.0);
  EXPECT_EQ(root.find("rnDropped")->number, 1.0);
}

TEST_F(TraceTest, SummaryJsonCarriesSampledOut) {
  Tracer::global().enable();
  { TraceSpan span("one"); }
  const std::string json = trace_summary_json(Tracer::global().collect(),
                                              /*dropped=*/2,
                                              /*sampled_out=*/9);
  JsonValue root;
  std::string err;
  ASSERT_TRUE(parse_json(json, &root, &err)) << err << "\n" << json;
  EXPECT_EQ(root.find("dropped")->number, 2.0);
  EXPECT_EQ(root.find("sampled_out")->number, 9.0);
}

TEST_F(TraceTest, ExportAndCloseWritesOutPathAndDisables) {
  const std::string path = temp_path("auto.json");
  Tracer::global().set_out_path(path);
  EXPECT_TRUE(Tracer::global().enabled());
  { TraceSpan span("auto_span"); }
  Tracer::global().export_and_close();
  EXPECT_FALSE(Tracer::global().enabled());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("auto_span"), std::string::npos);
}

}  // namespace
}  // namespace rn::obs
