// Differential backstop for the static verifier: compile emitted kernels
// as standalone AddressSanitizer binaries and execute every thread block
// with exactly-sized heap allocations.  The two directions under test:
//
//   verifier-safe    =>  ASan-silent   (no false negatives in the model)
//   mutated-unsafe   =>  verifier-flagged, and the one hand-picked
//                        mutant we also execute must trip ASan (the
//                        corpus injects real bugs, not verifier quirks)
//
// The verifier and the emitter read the same exec/lower descriptors;
// this is the empirical check that the printed C++ really touches what
// those descriptors say — a drift shows up here as either a surprise
// ASan report or a surprise clean run.  Kept to a
// handful of compiles — each standalone -fsanitize=address build costs
// a few seconds.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dag/schedule.hpp"
#include "exec/codegen.hpp"
#include "exec/jit.hpp"
#include "ir/expr.hpp"
#include "verify/mutate.hpp"
#include "verify/verify.hpp"

namespace mcf {
namespace {

const ChainSpec& fig7_chain() {
  static const ChainSpec c =
      ChainSpec::gemm_chain("diff-fig7", 1, 128, 128, 64, 64);
  return c;
}
const ChainSpec& ragged_chain() {
  static const ChainSpec c =
      ChainSpec::gemm_chain("diff-ragged", 2, 96, 80, 48, 56);
  return c;
}
const ChainSpec& attn_chain() {
  static const ChainSpec c =
      ChainSpec::attention("diff-attn", 2, 64, 64, 32, 32);
  return c;
}

Schedule deep_schedule(const ChainSpec& c, std::vector<std::int64_t> tiles) {
  std::vector<int> order;
  order.push_back(0);
  for (int l = c.num_loops() - 1; l >= 1; --l) order.push_back(l);
  return build_schedule(c, make_deep_expr(c, order), tiles);
}

/// Emits prelude + kernel + a main() that allocates every tensor at its
/// EXACT declared size on the heap (so any out-of-bounds float lands in
/// an ASan redzone) and runs all thread blocks.
std::string emit_driver_tu(const Schedule& s, std::int64_t n_blocks) {
  const ChainSpec& c = s.chain();
  const CppKernelSource k = emit_cpp_kernel(s, "mcf_diff_kernel");
  std::ostringstream os;
  os << cpp_kernel_prelude() << k.code;
  os << "int main() {\n"
     << "  const i64 scratch_n = " << cpp_kernel_scratch_floats(s) << ";\n"
     << "  float* a = new float[" << c.batch() * c.m() * c.inner().front()
     << "]();\n";
  for (int op = 0; op < c.num_ops(); ++op) {
    os << "  float* w" << op << " = new float["
       << c.batch() * c.inner()[static_cast<std::size_t>(op)] *
              c.inner()[static_cast<std::size_t>(op) + 1]
       << "]();\n";
  }
  os << "  const float* ws[" << c.num_ops() << "] = {";
  for (int op = 0; op < c.num_ops(); ++op) os << (op ? ", w" : "w") << op;
  os << "};\n"
     << "  float* out = new float[" << c.batch() * c.m() * c.inner().back()
     << "]();\n"
     << "  float* scratch = new float[scratch_n]();\n"
     << "  mcf_diff_kernel(a, ws, out, scratch, 0, " << n_blocks << ");\n"
     << "  delete[] scratch; delete[] out; delete[] a;\n";
  for (int op = 0; op < c.num_ops(); ++op) os << "  delete[] w" << op << ";\n";
  os << "  return 0;\n}\n";
  return os.str();
}

/// Compiles `tu` with ASan and runs it; returns the process exit status
/// (0 == clean) or -1 when the compile itself failed.
int compile_and_run_asan(const std::string& tu, const std::string& tag) {
  const jit::Toolchain tc = jit::detect_toolchain();
  const std::string dir = ::testing::TempDir();
  const std::string src = dir + "mcf_diff_" + tag + ".cpp";
  const std::string exe = dir + "mcf_diff_" + tag;
  std::ofstream(src) << tu;
  const std::string compile = tc.cxx + " -std=c++17 -O1 -fsanitize=address "
                              "-fno-math-errno -o " + exe + " " + src +
                              " 2>" + exe + ".log";
  if (std::system(compile.c_str()) != 0) {
    std::ifstream log(exe + ".log");
    std::stringstream ss;
    ss << log.rdbuf();
    ADD_FAILURE() << "asan compile failed for " << tag << ":\n" << ss.str();
    return -1;
  }
  // Silence ASan's default abort-on-error exit decoration; the exit
  // status is the verdict.
  const std::string run = "ASAN_OPTIONS=log_path=" + exe +
                          ".asan:exitcode=99 " + exe + " >/dev/null 2>&1";
  return std::system(run.c_str());
}

TEST(Differential, VerifierSafeImpliesAsanSilent) {
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  struct Case {
    const char* tag;
    const ChainSpec* chain;
    std::vector<std::int64_t> tiles;
  };
  // Exact-path, ragged-fringe, and online-softmax legs.
  const std::vector<Case> cases = {
      {"exact", &fig7_chain(), {32, 32, 32, 32}},
      {"fringe", &ragged_chain(), {40, 48, 28, 24}},
      {"softmax", &attn_chain(), {24, 64, 16, 16}},
  };
  for (const Case& cs : cases) {
    const Schedule s = deep_schedule(*cs.chain, cs.tiles);
    ASSERT_TRUE(s.valid()) << cs.tag;
    if (!s.consume_complete()) continue;
    const verify::VerifyReport r = verify::verify_schedule(s);
    ASSERT_TRUE(r.safe()) << cs.tag << ": " << r.to_json();
    EXPECT_EQ(compile_and_run_asan(emit_driver_tu(s, r.n_blocks), cs.tag), 0)
        << cs.tag << ": verifier-safe kernel tripped ASan (the emitted "
           "code drifted from its lowered descriptors)";
  }
}

TEST(Differential, FlaggedMutantTripsAsan) {
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  const Schedule base = deep_schedule(fig7_chain(), {32, 32, 32, 32});
  ASSERT_TRUE(verify::verify_schedule(base).safe());
  const auto corpus = verify::mutation_corpus(base, 13, 64);
  ASSERT_FALSE(corpus.empty());
  // Every mutant must be verifier-flagged (the cheap direction)...
  const verify::Mutant* exec_pick = nullptr;
  for (const verify::Mutant& m : corpus) {
    const verify::VerifyReport r = verify::verify_schedule(m.schedule);
    ASSERT_FALSE(r.safe()) << m.name << " (" << m.detail << ")";
    // ... and we execute one whose witness is a WRITE that leaves its
    // heap allocation entirely (RegionAlias stays inside the scratch
    // block, which ASan cannot see; a hard overrun lands in a redzone).
    if (exec_pick == nullptr) {
      for (const auto& v : r.violations) {
        if (v.access == "write" &&
            (v.kind == verify::ViolationKind::ScratchOverflow ||
             v.kind == verify::ViolationKind::GlobalOutOfBounds)) {
          exec_pick = &m;
          break;
        }
      }
    }
  }
  ASSERT_NE(exec_pick, nullptr) << "corpus produced no write-overrun mutant";
  const verify::VerifyReport r = verify::verify_schedule(exec_pick->schedule);
  const int status =
      compile_and_run_asan(emit_driver_tu(exec_pick->schedule, r.n_blocks),
                           "mutant");
  EXPECT_NE(status, 0) << exec_pick->name << " (" << exec_pick->detail
                       << "): verifier flagged it but ASan ran clean";
}

}  // namespace
}  // namespace mcf
