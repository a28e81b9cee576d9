// Model construction: builder API, directive-language parser, and the
// Figure-5 annotated-source extractor.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "core/model.h"
#include "core/parse.h"
#include "core/predict.h"
#include "core/theoretical.h"

namespace {

using pevpm::LoopNode;
using pevpm::MessageNode;
using pevpm::Model;
using pevpm::MsgOp;
using pevpm::RunonNode;
using pevpm::SerialNode;

TEST(ModelBuilder, BuildsNestedStructure) {
  pevpm::ModelBuilder b;
  b.param("xsize", 256);
  b.loop("10");
  b.runon("procnum % 2 == 0");
  b.send("xsize * 4", "procnum + 1");
  b.orelse();
  b.recv("xsize * 4", "procnum - 1");
  b.end();
  b.serial("0.01 / numprocs");
  b.end();
  const Model m = b.build("test");
  ASSERT_EQ(m.body.size(), 1u);
  const auto* loop = std::get_if<LoopNode>(&m.body[0]->data);
  ASSERT_NE(loop, nullptr);
  ASSERT_EQ(loop->body.size(), 2u);
  const auto* runon = std::get_if<RunonNode>(&loop->body[0]->data);
  ASSERT_NE(runon, nullptr);
  EXPECT_EQ(runon->then_body.size(), 1u);
  EXPECT_EQ(runon->else_body.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<SerialNode>(loop->body[1]->data));
  EXPECT_DOUBLE_EQ(m.parameters.at("xsize"), 256.0);
  EXPECT_GT(m.node_count, 0);
}

TEST(ModelBuilder, ErrorsOnMisuse) {
  pevpm::ModelBuilder open_block;
  open_block.loop("3");
  EXPECT_THROW((void)open_block.build("x"), std::logic_error);

  pevpm::ModelBuilder stray_end;
  EXPECT_THROW(stray_end.end(), std::logic_error);

  pevpm::ModelBuilder stray_else;
  EXPECT_THROW(stray_else.orelse(), std::logic_error);
}

TEST(ParseModel, FullProgramRoundTrips) {
  const char* text = R"(
# Jacobi-like exchange
param xsize = 256
loop 100 {
  runon procnum % 2 == 0 {
    runon procnum != 0 {
      message send size = xsize * 4 to = procnum - 1
    }
    message recv size = xsize * 4 from = procnum + 1
  } else {
    message recv size = xsize * 4 from = procnum - 1
    message send size = xsize * 4 to = procnum - 1
  }
  serial time = 3.24 / numprocs
}
)";
  const Model m = pevpm::parse_model(text, "jacobi");
  ASSERT_EQ(m.body.size(), 1u);
  EXPECT_DOUBLE_EQ(m.parameters.at("xsize"), 256.0);
  // The pretty-printed model must itself parse to the same structure.
  const Model again = pevpm::parse_model(m.str(), "jacobi");
  EXPECT_EQ(again.str(), m.str());
}

TEST(ParseModel, NonblockingAndWait) {
  const char* text = R"(
message isend size = 1024 to = procnum + 1 handle = h1
message irecv size = 1024 from = procnum + 1 handle = h2
serial time = 0.001
wait h1
wait handle = h2
)";
  const Model m = pevpm::parse_model(text);
  ASSERT_EQ(m.body.size(), 5u);
  const auto* isend = std::get_if<MessageNode>(&m.body[0]->data);
  ASSERT_NE(isend, nullptr);
  EXPECT_EQ(isend->op, MsgOp::kIsend);
  EXPECT_EQ(isend->handle, "h1");
  const auto* wait = std::get_if<pevpm::WaitNode>(&m.body[4]->data);
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->handle, "h2");
}

TEST(ParseModel, LoopCountAliases) {
  EXPECT_NO_THROW((void)pevpm::parse_model("loop iterations = 5 {\n serial time = 1\n}\n"));
  EXPECT_NO_THROW((void)pevpm::parse_model("loop count = 5 {\n serial time = 1\n}\n"));
  EXPECT_NO_THROW((void)pevpm::parse_model("loop 5 {\n serial time = 1\n}\n"));
}

TEST(ParseModel, ReportsErrorsWithLineNumbers) {
  try {
    (void)pevpm::parse_model("loop 3 {\n  bogus directive\n}\n");
    FAIL() << "expected ParseError";
  } catch (const pevpm::ParseError& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos);
  }
  EXPECT_THROW((void)pevpm::parse_model("loop 3 {\n serial time = 1\n"),
               pevpm::ParseError);
  EXPECT_THROW((void)pevpm::parse_model("}\n"), pevpm::ParseError);
  EXPECT_THROW((void)pevpm::parse_model("message send size = 4\n"),
               pevpm::ParseError);
  EXPECT_THROW(
      (void)pevpm::parse_model("message isend size = 4 to = 1\n"),
      pevpm::ParseError);
}

// The paper's Figure 5, lightly abridged: the annotated Jacobi skeleton.
constexpr const char* kFigure5 = R"(
int i, j, k, procnum, numprocs;
// PEVPM Loop iterations = 1000
// PEVPM {
  for (i = 0; i < iterations; i++){
// PEVPM Runon c1 = procnum%2 == 0
// PEVPM &     c2 = procnum%2 != 0
// PEVPM {
    if (procnum%2 == 0){
// PEVPM Runon c1 = procnum != 0
// PEVPM {
      if (procnum != 0){
// PEVPM Message type = MPI_Send
// PEVPM &       size = xsize*4
// PEVPM &       from = procnum
// PEVPM &       to = procnum-1
        MPI_Send(...);
      }
// PEVPM }
// PEVPM Message type = MPI_Recv
// PEVPM &       size = xsize*4
// PEVPM &       from = procnum+1
// PEVPM &       to = procnum
      MPI_Recv(...);
// PEVPM }
// PEVPM {
    } else {
// PEVPM Message type = MPI_Recv
// PEVPM &       size = xsize*4
// PEVPM &       from = procnum-1
// PEVPM &       to = procnum
      MPI_Recv(...);
// PEVPM Message type = MPI_Send
// PEVPM &       size = xsize*4
// PEVPM &       from = procnum
// PEVPM &       to = procnum-1
      MPI_Send(...);
    }
// PEVPM }
// PEVPM Serial on perseus time = 3.24/numprocs
    compute();
// PEVPM }
)";

TEST(ParseAnnotations, ExtractsFigure5Structure) {
  pevpm::Model m = pevpm::parse_annotated_source(kFigure5, "fig5");
  m.parameters["xsize"] = 256.0;
  ASSERT_EQ(m.body.size(), 1u);
  const auto* loop = std::get_if<LoopNode>(&m.body[0]->data);
  ASSERT_NE(loop, nullptr);
  EXPECT_DOUBLE_EQ(loop->count->eval(m.parameters), 1000.0);
  // Loop body: the two-condition Runon chain plus the Serial directive.
  ASSERT_EQ(loop->body.size(), 2u);
  const auto* chain = std::get_if<RunonNode>(&loop->body[0]->data);
  ASSERT_NE(chain, nullptr);
  // Even branch: a nested Runon (procnum != 0) plus a Recv.
  ASSERT_EQ(chain->then_body.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<RunonNode>(chain->then_body[0]->data));
  // The else side is the c2 Runon with the odd branch.
  ASSERT_EQ(chain->else_body.size(), 1u);
  const auto* odd = std::get_if<RunonNode>(&chain->else_body[0]->data);
  ASSERT_NE(odd, nullptr);
  EXPECT_EQ(odd->then_body.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<SerialNode>(loop->body[1]->data));
}

TEST(ParseAnnotations, MessageDirectionFollowsType) {
  const char* source = R"(
// PEVPM Message type = MPI_Send & size = 100 & from = procnum & to = 1
// PEVPM Message type = MPI_Recv & size = 100 & from = 0 & to = procnum
)";
  const Model m = pevpm::parse_annotated_source(source);
  ASSERT_EQ(m.body.size(), 2u);
  const auto* send = std::get_if<MessageNode>(&m.body[0]->data);
  const auto* recv = std::get_if<MessageNode>(&m.body[1]->data);
  ASSERT_NE(send, nullptr);
  ASSERT_NE(recv, nullptr);
  EXPECT_EQ(send->op, MsgOp::kSend);
  EXPECT_DOUBLE_EQ(send->peer->eval({}), 1.0);  // "to" operand
  EXPECT_EQ(recv->op, MsgOp::kRecv);
  EXPECT_DOUBLE_EQ(recv->peer->eval({}), 0.0);  // "from" operand
}

TEST(ParseAnnotations, RejectsGarbage) {
  EXPECT_THROW((void)pevpm::parse_annotated_source("// PEVPM Frobnicate x\n"),
               pevpm::ParseError);
  EXPECT_THROW((void)pevpm::parse_annotated_source("// PEVPM & size = 4\n"),
               pevpm::ParseError);
  EXPECT_THROW((void)pevpm::parse_annotated_source("// PEVPM }\n"),
               pevpm::ParseError);
  EXPECT_THROW((void)pevpm::parse_annotated_source(
                   "// PEVPM Message type = MPI_Bcast & size = 4 & to = 1\n"),
               pevpm::ParseError);
}

TEST(ParseAnnotations, JacobiExampleFileParsesAndEvaluates) {
  // examples/jacobi.cpp documents the annotate-the-real-code workflow, so
  // the whole file must parse as annotated source: no ordinary comment may
  // read as a directive, and the model must be exactly the one in its
  // kAnnotatedSkeleton raw string.
  std::ifstream in{JACOBI_EXAMPLE_SOURCE};
  ASSERT_TRUE(in) << "cannot open " << JACOBI_EXAMPLE_SOURCE;
  std::stringstream source;
  source << in.rdbuf();
  const std::string text = source.str();
  const std::string marker = "kAnnotatedSkeleton = R\"(";
  const std::size_t begin = text.find(marker);
  ASSERT_NE(begin, std::string::npos);
  const std::size_t end = text.find(")\";", begin);
  ASSERT_NE(end, std::string::npos);
  const Model skeleton = pevpm::parse_annotated_source(
      text.substr(begin + marker.size(), end - begin - marker.size()),
      "jacobi");

  const Model m = pevpm::parse_annotated_source(text, "jacobi");
  EXPECT_EQ(m.str(), skeleton.str());

  const std::vector<net::Bytes> sizes{net::Bytes{1024}};
  const std::vector<int> contentions{1, 2, 4};
  const pevpm::TheoreticalMachine machine;
  const auto table = pevpm::make_theoretical_table(machine, sizes, contentions);
  pevpm::PredictOptions opts;
  opts.replications = 2;
  opts.threads = 1;
  const auto prediction = pevpm::predict(m, 4, {}, table, opts);
  EXPECT_FALSE(prediction.deadlocked);
  // One iteration: the 3.24 s / 4 serial step plus the halo exchange.
  EXPECT_GT(prediction.seconds(), 3.24 / 4);
  EXPECT_TRUE(std::isfinite(prediction.seconds()));
}

TEST(ParseAnnotations, IgnoresOrdinaryCode) {
  const Model m = pevpm::parse_annotated_source(
      "int main() { /* no annotations at all */ }\n");
  EXPECT_TRUE(m.body.empty());
}

}  // namespace
