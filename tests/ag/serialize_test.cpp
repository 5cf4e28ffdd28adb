#include "ag/serialize.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rn::ag {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// Parameters round-trip through an RNCKPT2 checkpoint that holds only the
// named-tensor block, and load by name through apply_named_tensors — the
// path the trainer's resume and RouteNet::load share.
void save_parameters(const std::string& path,
                     const std::vector<Parameter*>& params) {
  TrainCheckpoint ckpt;
  for (const Parameter* p : params) ckpt.params.emplace_back(p->name, p->value);
  save_train_checkpoint(path, ckpt);
}

void load_parameters(const std::string& path,
                     const std::vector<Parameter*>& params) {
  apply_named_tensors(load_train_checkpoint(path).params, params,
                      "checkpoint");
}

TEST(Serialize, RoundTripPreservesValues) {
  Parameter a("layer.w", Tensor::from_rows({{1.5f, -2.0f}, {0.25f, 3.0f}}));
  Parameter b("layer.b", Tensor::from_rows({{0.1f, 0.2f}}));
  const std::string path = temp_path("roundtrip.ckpt");
  save_parameters(path, {&a, &b});

  Parameter a2("layer.w", Tensor(2, 2));
  Parameter b2("layer.b", Tensor(1, 2));
  load_parameters(path, {&a2, &b2});
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(a2.value[static_cast<std::size_t>(i)],
                    a.value[static_cast<std::size_t>(i)]);
  }
  EXPECT_FLOAT_EQ(b2.value.at(0, 1), 0.2f);
}

TEST(Serialize, LoadByNameIgnoresOrder) {
  Parameter a("first", Tensor::scalar(1.0f));
  Parameter b("second", Tensor::scalar(2.0f));
  const std::string path = temp_path("order.ckpt");
  save_parameters(path, {&a, &b});
  Parameter b2("second", Tensor::scalar(0.0f));
  Parameter a2("first", Tensor::scalar(0.0f));
  load_parameters(path, {&b2, &a2});
  EXPECT_FLOAT_EQ(a2.value.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(b2.value.at(0, 0), 2.0f);
}

TEST(Serialize, MissingParameterThrows) {
  Parameter a("present", Tensor::scalar(1.0f));
  const std::string path = temp_path("missing.ckpt");
  save_parameters(path, {&a});
  Parameter ghost("ghost", Tensor::scalar(0.0f));
  EXPECT_THROW(load_parameters(path, {&ghost}), std::runtime_error);
}

TEST(Serialize, MissingParameterErrorNamesParameterAndShape) {
  Parameter a("present", Tensor::scalar(1.0f));
  const std::string path = temp_path("missing_msg.ckpt");
  save_parameters(path, {&a});
  Parameter ghost("ghost", Tensor::scalar(0.0f));
  try {
    load_parameters(path, {&ghost});
    FAIL() << "expected a missing-parameter error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'ghost'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1x1"), std::string::npos) << msg;
  }
}

TEST(Serialize, ShapeMismatchThrows) {
  Parameter a("p", Tensor(2, 2));
  const std::string path = temp_path("shape.ckpt");
  save_parameters(path, {&a});
  Parameter wrong("p", Tensor(2, 3));
  EXPECT_THROW(load_parameters(path, {&wrong}), std::runtime_error);
}

TEST(Serialize, ShapeMismatchErrorNamesParameterAndBothShapes) {
  Parameter a("p", Tensor(2, 2));
  const std::string path = temp_path("shape_msg.ckpt");
  save_parameters(path, {&a});
  Parameter wrong("p", Tensor(2, 3));
  try {
    load_parameters(path, {&wrong});
    FAIL() << "expected a shape-mismatch error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'p'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2x2"), std::string::npos) << msg;  // checkpoint shape
    EXPECT_NE(msg.find("2x3"), std::string::npos) << msg;  // model shape
  }
}

TEST(Serialize, BadMagicThrows) {
  const std::string path = temp_path("garbage.ckpt");
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a checkpoint at all", f);
    std::fclose(f);
  }
  Parameter p("p", Tensor::scalar(0.0f));
  EXPECT_THROW(load_parameters(path, {&p}), std::runtime_error);
}

TEST(Serialize, NonexistentFileThrows) {
  Parameter p("p", Tensor::scalar(0.0f));
  EXPECT_THROW(load_parameters("/nonexistent/dir/x.ckpt", {&p}),
               std::runtime_error);
}

}  // namespace
}  // namespace rn::ag
