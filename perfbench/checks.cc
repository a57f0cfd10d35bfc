// Correctness checks built from properties of the method, and a self-test
// that feeds each check an input on which it must fail.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.h"
#include "net/server.h"

namespace perfbench {

namespace {

std::string Fmt(const char* what, uint64_t got, uint64_t want) {
  return std::string(what) + ": got " + std::to_string(got) + ", want " +
         std::to_string(want);
}

}  // namespace

std::string CheckCleanPass(const leopard::VerifyReport& report,
                           uint64_t traces_in_input) {
  const leopard::VerifierStats& s = report.stats;
  // The pipeline dispatches in ts_bef order (Theorem 1); without that the
  // other verdicts mean nothing.
  if (s.out_of_order_traces != 0) {
    return Fmt("out-of-order traces", s.out_of_order_traces, 0);
  }
  // Every trace in the input is verified exactly once.
  if (s.traces_processed != traces_in_input) {
    return Fmt("traces verified", s.traces_processed, traces_in_input);
  }
  // A correct engine's history has no violation.
  if (s.TotalViolations() != 0 || !report.bugs.empty()) {
    return Fmt("violations on a correct engine's history",
               std::max<uint64_t>(s.TotalViolations(), report.bugs.size()), 0);
  }
  return "";
}

std::string CheckSameBugs(const std::vector<leopard::BugDescriptor>& got,
                          const std::vector<leopard::BugDescriptor>& want) {
  if (Verdicts(got) != Verdicts(want)) {
    return Fmt("bug set differs from the one-shard verdicts (sizes)",
               got.size(), want.size());
  }
  return "";
}

std::string CheckServeJob(const JobVerdict& got, const JobExpect& want) {
  if (got.pushed != want.traces) return Fmt("traces pushed", got.pushed, want.traces);
  if (got.traces_verified != got.pushed) {
    return Fmt("kBye traces_verified", got.traces_verified, got.pushed);
  }
  if (want.injected == 0 && !got.violations.empty()) {
    return Fmt("violations on a history with no planted fault",
               got.violations.size(), 0);
  }
  if (want.injected > 0) {
    bool me = false;
    for (const auto& b : got.violations) {
      me = me || b.type == leopard::BugType::kMeViolation;
    }
    if (!me) return "planted lock drops reported no ME violation";
  }
  if (Verdicts(got.violations) != Verdicts(want.reference)) {
    return Fmt("wire verdicts differ from in-process verdicts (sizes)",
               got.violations.size(), want.reference.size());
  }
  return "";
}

std::string CheckRecovery(const std::string& state_dir, uint64_t pushed,
                          const std::vector<leopard::BugDescriptor>& verdicts) {
  leopard::net::VerifierServer::Options so;
  so.n_shards = 1;
  so.state_dir = state_dir;
  so.checkpoint_interval_ms = 0;
  leopard::net::VerifierServer server(EngineConfig(), so);
  leopard::Status st = server.Start();
  if (!st.ok()) return "state dir does not recover: " + st.ToString();
  const bool resumed = server.recovery().resumed;
  server.Shutdown();
  const leopard::VerifyReport& report = server.WaitReport();
  if (!resumed) return "state dir held nothing to resume";
  if (report.stats.traces_processed != pushed) {
    return Fmt("recovered traces", report.stats.traces_processed, pushed);
  }
  if (Verdicts(report.bugs) != Verdicts(verdicts)) {
    return Fmt("recovered verdicts differ from the job's (sizes)",
               report.bugs.size(), verdicts.size());
  }
  return "";
}

int SelfTest(const std::string& work_dir) {
  int missed = 0;
  auto expect_fail = [&missed](const char* name, const std::string& why) {
    std::printf("selftest %-44s %s%s\n", name,
                why.empty() ? "MISSED" : "fired: ", why.c_str());
    if (why.empty()) ++missed;
  };
  const leopard::VerifierConfig config = EngineConfig();
  PassOptions po;
  po.config = config;

  // The serve workloads' job size and planted-fault rate.
  const History clean = Generate({HistoryKind::kSmallBank, 8000, 7, 0.0});
  const History faulty = Generate({HistoryKind::kSmallBank, 8000, 7, 0.2});
  const PassResult clean_pass = MemoryPass(clean, po);
  const PassResult faulty_pass = MemoryPass(faulty, po);
  std::printf("selftest baseline: clean history check says '%s', "
              "%llu faults planted, %zu bugs found\n",
              CheckCleanPass(clean_pass.report, clean.traces).c_str(),
              static_cast<unsigned long long>(faulty.injected),
              faulty_pass.report.bugs.size());
  if (!CheckCleanPass(clean_pass.report, clean.traces).empty()) ++missed;

  // Clean-history check: a planted fault, a dropped trace, an out-of-order
  // dispatch.
  expect_fail("clean check / planted fault",
              CheckCleanPass(faulty_pass.report, faulty.traces));
  {
    History dropped = clean;
    dropped.streams[0].pop_back();
    expect_fail("clean check / one trace dropped",
                CheckCleanPass(MemoryPass(dropped, po).report, clean.traces));
  }
  {
    leopard::ShardedLeopard engine(config, leopard::ShardedLeopard::Options());
    std::vector<leopard::Trace> merged;
    for (const auto& [s, i] : clean.arrival) merged.push_back(clean.streams[s][i]);
    std::swap(merged[merged.size() / 2], merged[merged.size() / 2 + 40]);
    for (const auto& t : merged) engine.Process(t);
    engine.Finish();
    expect_fail("clean check / out-of-order dispatch",
                CheckCleanPass(engine.report(), clean.traces));
  }
  // Shard-parity check: one bug missing.
  {
    auto fewer = faulty_pass.report.bugs;
    if (!fewer.empty()) fewer.pop_back();
    expect_fail("bug-set parity / one bug missing",
                CheckSameBugs(fewer, faulty_pass.report.bugs));
  }
  // Serve-job checks.
  {
    JobExpect want{clean.traces, 0, {}};
    JobVerdict got{clean.traces, clean.traces - 1, {}};
    expect_fail("serve check / one trace unverified", CheckServeJob(got, want));
    got.traces_verified = clean.traces;
    got.violations = faulty_pass.report.bugs;
    expect_fail("serve check / violation on clean job", CheckServeJob(got, want));
    JobExpect fwant{faulty.traces, faulty.injected, faulty_pass.report.bugs};
    JobVerdict fgot{faulty.traces, faulty.traces, {}};
    expect_fail("serve check / planted fault unreported",
                CheckServeJob(fgot, fwant));
    fgot.violations = faulty_pass.report.bugs;
    if (!fgot.violations.empty()) fgot.violations.pop_back();
    expect_fail("serve check / verdicts differ", CheckServeJob(fgot, fwant));
  }
  // Durable check: a state dir that misses a trace, or lost its checkpoint.
  {
    const std::string dir = work_dir + "/selftest_state";
    std::filesystem::remove_all(dir);
    JobOptions jo;
    jo.durable = true;
    jo.state_dir = dir;
    jo.checkpoint_every = faulty.traces / 3;
    JobResult job = RunServeJob(faulty, jo);
    std::printf("selftest durable job: %s, recovery check says '%s'\n",
                job.status.ToString().c_str(),
                CheckRecovery(dir, job.verdict.pushed, job.verdict.violations)
                    .c_str());
    expect_fail("recovery check / one more trace claimed",
                CheckRecovery(dir, job.verdict.pushed + 1,
                              job.verdict.violations));
    std::filesystem::remove_all(dir);
    expect_fail("recovery check / state dir removed",
                CheckRecovery(dir, job.verdict.pushed, job.verdict.violations));
    std::filesystem::remove_all(dir);
  }
  std::printf("selftest: %d check(s) failed to fire\n", missed);
  return missed;
}

}  // namespace perfbench
