/**
 * @file
 * Supervisor and write-ahead-journal tests (DESIGN.md §16): the
 * JobResult codec must round-trip raw stats bit-exactly, a crashing
 * or wedged job must be contained (and retried) without poisoning
 * its siblings, every sandbox must be forked from the calling thread
 * while no other thread runs, and a sweep killed mid-run must resume
 * from the journal to the exact artifact an uninterrupted run
 * produces. The sandboxed-vs-in-process bit-identity sweep is the
 * SupervisorIntegration suite, labelled "long" in ctest.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <iterator>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "cmpmem.hh"
#include "sim/log.hh"

namespace cmpmem
{
namespace
{

/** A custom-run job returning fixed, distinctive simulated stats. */
SweepJob
fixedJob(const std::string &id, Tick ticks)
{
    SweepJob j;
    j.id = id;
    j.run = [ticks] {
        RunResult r;
        r.stats.execTicks = ticks;
        r.stats.eventsExecuted = 10 * ticks;
        r.stats.dramReadBytes = 64 * ticks;
        r.verified = true;
        return r;
    };
    return j;
}

/** A completed JobResult the journal tests can record directly. */
JobResult
fixedResult(const std::string &id, Tick ticks)
{
    JobResult jr;
    jr.job.id = id;
    jr.ran = true;
    jr.run.verified = true;
    jr.run.stats.execTicks = ticks;
    jr.run.stats.eventsExecuted = 10 * ticks;
    return jr;
}

std::string
tempPath(const std::string &leaf)
{
    return testing::TempDir() + "/" + leaf;
}

/** Entries of /proc/<pid>/task: the threads of process @p pid. */
std::uint64_t
threadCount(pid_t pid)
{
    const std::filesystem::directory_iterator tasks(
        fmt("/proc/%d/task", int(pid)));
    return std::uint64_t(std::distance(begin(tasks), end(tasks)));
}

// ---------------------------------------------------------------- //
// JobResult codec                                                  //
// ---------------------------------------------------------------- //

TEST(SupervisorCodec, RoundTripsJobResultBitExactly)
{
    JobResult in;
    in.job.id = "codec";
    in.ran = true;
    in.attempts = 3;
    in.error = "none really";
    in.errorKind = "";
    in.signal = "";
    in.diagnostic = "diag\ntext";
    in.log = "warn: something\n";
    in.run.verified = true;
    in.run.hostSeconds = 0.1 + 0.2; // not exactly representable

    // Every listed counter gets its own value, so a field the codec
    // drops or swaps with another cannot decode to the right one.
    RunStats &s = in.run.stats;
    s.workload = "wl";
    s.variant = "var";
    std::uint64_t next = 100;
    for (const auto &f : kRunStatsScalarFields)
        s.*f.member = next++;
    s.dramReadBytes = (1ull << 52) + 3; // still exact in a double
    s.missPathAllocs = 7;
    for (const auto &f : kCoreStatsFields)
        s.coreTotal.*f.member = next++;
    s.perCore.resize(2);
    for (CoreStats &cs : s.perCore)
        for (const auto &f : kCoreStatsFields)
            cs.*f.member = next++;
    for (const auto &f : kL1CounterFields)
        s.l1Total.*f.member = next++;
    for (const auto &f : kFabricCounterFields)
        s.fabric.*f.member = next++;
    for (const auto &f : kFaultStatsFields)
        s.faults.*f.member = next++;
    for (const auto &f : kEnergyFields)
        in.run.energy.*f.member = double(next++) / 3.0;

    const std::string wire =
        jobResultToJson(in, /*include_log=*/true).dumpCompact();
    JobResult out;
    jobResultFromJson(JsonValue::parse(wire), out);

    // The digest covers every rendered stat: equality here is the
    // codec's bit-identity contract in one comparison.
    EXPECT_EQ(out.run.stats.toStatSet().digest(),
              in.run.stats.toStatSet().digest());

    EXPECT_TRUE(out.ran);
    EXPECT_TRUE(out.run.verified);
    EXPECT_EQ(out.attempts, 3);
    EXPECT_EQ(out.run.hostSeconds, in.run.hostSeconds);
    EXPECT_EQ(out.run.stats.workload, "wl");
    EXPECT_EQ(out.run.stats.variant, "var");
    EXPECT_EQ(out.error, "none really");
    EXPECT_EQ(out.diagnostic, "diag\ntext");
    EXPECT_EQ(out.log, "warn: something\n");
    // Host-side only, so the digest above cannot see it.
    EXPECT_EQ(out.run.stats.missPathAllocs, 7u);

    const RunStats &o = out.run.stats;
    for (const auto &f : kRunStatsScalarFields)
        EXPECT_EQ(o.*f.member, s.*f.member) << f.name;
    for (const auto &f : kCoreStatsFields)
        EXPECT_EQ(o.coreTotal.*f.member, s.coreTotal.*f.member) << f.name;
    ASSERT_EQ(o.perCore.size(), 2u);
    for (std::size_t c = 0; c < 2; ++c)
        for (const auto &f : kCoreStatsFields)
            EXPECT_EQ(o.perCore[c].*f.member, s.perCore[c].*f.member)
                << "core " << c << " " << f.name;
    for (const auto &f : kL1CounterFields)
        EXPECT_EQ(o.l1Total.*f.member, s.l1Total.*f.member) << f.name;
    for (const auto &f : kFabricCounterFields)
        EXPECT_EQ(o.fabric.*f.member, s.fabric.*f.member) << f.name;
    for (const auto &f : kFaultStatsFields)
        EXPECT_EQ(o.faults.*f.member, s.faults.*f.member) << f.name;
    for (const auto &f : kEnergyFields)
        EXPECT_EQ(out.run.energy.*f.member, in.run.energy.*f.member)
            << f.name;
}

TEST(SupervisorCodec, LogIsOptionalOnTheWire)
{
    JobResult in = fixedResult("l", 5);
    in.log = "warn: big\n";
    const std::string wire =
        jobResultToJson(in, /*include_log=*/false).dumpCompact();
    EXPECT_EQ(wire.find("\"log\""), std::string::npos);
    JobResult out;
    jobResultFromJson(JsonValue::parse(wire), out);
    EXPECT_TRUE(out.log.empty());
    EXPECT_EQ(out.run.stats.execTicks, 5u);
}

TEST(SupervisorCodec, MissingOrOutOfRangeMemberIsAnError)
{
    JobResult out;
    EXPECT_THROW(
        jobResultFromJson(JsonValue::parse("{\"ran\": true}"), out),
        SimError);

    // A counter no uint64_t can hold must not reach the cast.
    for (double bad : {-1.0, 0x1p64}) {
        JsonValue doc = jobResultToJson(fixedResult("r", 5), false);
        doc.at("stats").set("exec_ticks", JsonValue::makeNumber(bad));
        try {
            jobResultFromJson(doc, out);
            ADD_FAILURE() << "decoded exec_ticks " << bad;
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimErrorKind::Config);
            EXPECT_NE(std::string(e.what()).find("exec_ticks"),
                      std::string::npos)
                << e.what();
        }
    }
}

// ---------------------------------------------------------------- //
// Isolation resolution and retry policy                            //
// ---------------------------------------------------------------- //

TEST(SupervisorEnv, IsolationResolution)
{
    const char *prev = std::getenv("CMPMEM_ISOLATE");
    const std::string saved = prev ? prev : "";

    SweepOptions o;
    o.isolate = SweepIsolate::On;
    EXPECT_TRUE(isolationEnabled(o));

    // Explicit Off wins over the environment.
    setenv("CMPMEM_ISOLATE", "1", 1);
    o.isolate = SweepIsolate::Off;
    EXPECT_FALSE(isolationEnabled(o));

    o.isolate = SweepIsolate::Env;
    EXPECT_TRUE(isolationEnabled(o));
    setenv("CMPMEM_ISOLATE", "0", 1);
    EXPECT_FALSE(isolationEnabled(o));
    unsetenv("CMPMEM_ISOLATE");
    EXPECT_FALSE(isolationEnabled(o));

    if (prev)
        setenv("CMPMEM_ISOLATE", saved.c_str(), 1);
}

TEST(SupervisorRetry, ReDispatchAfterSandboxDeathSucceeds)
{
    // First attempt kills its sandbox (plain _exit, which even a
    // sanitizer cannot intercept); the sentinel file makes the
    // second attempt succeed, so ran + attempts==2 proves both the
    // crash classification and the re-dispatch accounting.
    const std::string sentinel = tempPath("cmpmem_retry_sentinel");
    std::remove(sentinel.c_str());

    SweepJob j;
    j.id = "flaky";
    j.run = [sentinel] {
        if (!std::ifstream(sentinel).good()) {
            std::ofstream(sentinel) << "attempt 1 was here";
            ::_exit(3);
        }
        RunResult r;
        r.stats.execTicks = 7;
        r.verified = true;
        return r;
    };

    SweepOptions opts;
    opts.jobs = 1;
    opts.echoLogs = false;
    opts.isolate = SweepIsolate::On;
    opts.maxRetries = 2;

    SweepResult res = runJobs("retry", {j}, opts);
    EXPECT_TRUE(res.at("flaky").ran);
    EXPECT_EQ(res.at("flaky").attempts, 2);
    EXPECT_EQ(res.at("flaky").run.stats.execTicks, 7u);
    std::remove(sentinel.c_str());
}

TEST(SupervisorSandbox, LogLinesSurviveChildDeath)
{
    // Log lines stream over the pipe as they are produced ('L'
    // frames), so text captured before the child dies is not lost
    // with it.
    SweepJob j;
    j.id = "doomed";
    j.run = [] {
        warn("before the lights go out");
        ::_exit(9);
        return RunResult{};
    };

    SweepOptions opts;
    opts.jobs = 1;
    opts.echoLogs = false;
    opts.isolate = SweepIsolate::On;

    SweepResult res = runJobs("doom", {j}, opts);
    const JobResult &jr = res.at("doomed");
    EXPECT_FALSE(jr.ran);
    EXPECT_EQ(jr.errorKind, "crash");
    EXPECT_NE(jr.error.find("status 9"), std::string::npos)
        << jr.error;
    EXPECT_NE(jr.log.find("before the lights go out"),
              std::string::npos)
        << jr.log;
    EXPECT_FALSE(SweepJournal::eligible(jr));
}

TEST(SupervisorSandbox, ForksOnlyFromTheCallingThread)
{
    // Each sandbox counts the threads of the process that forked it.
    // A child forked while a sibling thread holds a lock (allocator,
    // stdio, log) inherits it locked and can hang on it, so the
    // supervisor forks from the calling thread and starts no other.
    const std::uint64_t before = threadCount(::getpid());
    std::vector<SweepJob> jobs;
    for (int i = 0; i < 8; ++i) {
        SweepJob j;
        j.id = fmt("count%d", i);
        j.run = [] {
            RunResult r;
            r.stats.execTicks = threadCount(::getppid());
            r.verified = true;
            return r;
        };
        jobs.push_back(std::move(j));
    }

    SweepOptions opts;
    opts.jobs = 4;
    opts.echoLogs = false;
    opts.isolate = SweepIsolate::On;

    SweepResult res = runJobs("fork_thread", std::move(jobs), opts);
    ASSERT_EQ(res.jobs().size(), 8u);
    for (const JobResult &jr : res.jobs()) {
        ASSERT_TRUE(jr.ran) << jr.job.id << ": " << jr.error;
        EXPECT_EQ(jr.run.stats.execTicks, before) << jr.job.id;
    }
}

// ---------------------------------------------------------------- //
// SweepJournal                                                     //
// ---------------------------------------------------------------- //

TEST(SweepJournalTest, RecordsAreDurableAndReload)
{
    const std::string path = tempPath("cmpmem_journal_rt.jsonl");
    {
        SweepJournal journal(path, "jt", /*fresh=*/true);
        ASSERT_TRUE(journal.ok());
        journal.record(fixedResult("a", 11));
        journal.record(fixedResult("b", 22));
    }

    std::vector<SweepJob> jobs = {fixedJob("a", 11), fixedJob("b", 22),
                                  fixedJob("c", 33)};
    auto merged = SweepJournal::load(path, "jt", jobs);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(merged.at("a").run.stats.execTicks, 11u);
    EXPECT_EQ(merged.at("b").run.stats.execTicks, 22u);
    // Merged results are marked attempts==0 (not re-run).
    EXPECT_EQ(merged.at("a").attempts, 0);
    EXPECT_TRUE(merged.at("a").ran);
    std::remove(path.c_str());
}

TEST(SweepJournalTest, DuplicateIdsLastCompleteWins)
{
    const std::string path = tempPath("cmpmem_journal_dup.jsonl");
    {
        SweepJournal journal(path, "jt", /*fresh=*/true);
        journal.record(fixedResult("a", 11));
        journal.record(fixedResult("a", 99));
    }
    std::vector<SweepJob> jobs = {fixedJob("a", 0)};
    auto merged = SweepJournal::load(path, "jt", jobs);
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged.at("a").run.stats.execTicks, 99u);
    std::remove(path.c_str());
}

TEST(SweepJournalTest, TornTrailingLineIsDiscarded)
{
    const std::string path = tempPath("cmpmem_journal_torn.jsonl");
    {
        SweepJournal journal(path, "jt", /*fresh=*/true);
        journal.record(fixedResult("a", 11));
    }
    {
        // A kill mid-write leaves a prefix with no newline.
        std::ofstream app(path, std::ios::app | std::ios::binary);
        app << "{\"id\": \"b\", \"config\"";
    }
    std::vector<SweepJob> jobs = {fixedJob("a", 0), fixedJob("b", 0)};
    auto merged = SweepJournal::load(path, "jt", jobs);
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged.at("a").run.stats.execTicks, 11u);
    std::remove(path.c_str());
}

TEST(SweepJournalTest, CorruptMiddleRecordRefusesToLoad)
{
    const std::string path = tempPath("cmpmem_journal_mid.jsonl");
    {
        SweepJournal journal(path, "jt", /*fresh=*/true);
        journal.record(fixedResult("a", 11));
    }
    {
        std::ofstream app(path, std::ios::app | std::ios::binary);
        app << "this is not json\n";
    }
    {
        // Re-open append (non-fresh) and add a valid record after
        // the damage: the corruption is now provably not a torn
        // tail, so the file must be refused loudly.
        SweepJournal journal(path, "jt", /*fresh=*/false);
        journal.record(fixedResult("b", 22));
    }
    std::vector<SweepJob> jobs = {fixedJob("a", 0), fixedJob("b", 0)};
    try {
        SweepJournal::load(path, "jt", jobs);
        FAIL() << "loaded a journal with a corrupt middle record";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Config);
        EXPECT_NE(std::string(e.what()).find("corrupt record"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(SweepJournalTest, RefusesForeignSweep)
{
    const std::string path = tempPath("cmpmem_journal_name.jsonl");
    {
        SweepJournal journal(path, "mine", /*fresh=*/true);
        journal.record(fixedResult("a", 11));
    }
    std::vector<SweepJob> jobs = {fixedJob("a", 0)};
    try {
        SweepJournal::load(path, "theirs", jobs);
        FAIL() << "merged a journal from another sweep";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Config);
        EXPECT_NE(std::string(e.what()).find("refusing --resume"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(SweepJournalTest, RefusesOlderSchema)
{
    // A journal written while its header still carried the
    // micro-iteration divisor.
    const std::string path = tempPath("cmpmem_journal_schema.jsonl");
    {
        std::ofstream ofs(path, std::ios::trunc | std::ios::binary);
        ofs << fmt("{\"journal\": \"jt\", \"schema\": 3, \"scale\": %d, "
                   "\"bench_scale_div\": 1}\n",
                   benchScale());
    }
    std::vector<SweepJob> jobs = {fixedJob("a", 0)};
    try {
        SweepJournal::load(path, "jt", jobs);
        FAIL() << "merged a journal written under schema 3";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Config);
        EXPECT_NE(std::string(e.what()).find("schema 3"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(SweepJournalTest, RefusesConfigIdentityMismatch)
{
    const std::string path = tempPath("cmpmem_journal_cfg.jsonl");
    JobResult recorded = fixedResult("a", 11);
    recorded.job.cfg.cores = 2;
    {
        SweepJournal journal(path, "jt", /*fresh=*/true);
        journal.record(recorded);
    }
    // Same id, different experiment: the sweep definition changed
    // under the journal.
    SweepJob changed = fixedJob("a", 11);
    changed.cfg.cores = 4;
    try {
        SweepJournal::load(path, "jt", {changed});
        FAIL() << "merged a record whose config identity changed";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Config);
        EXPECT_NE(std::string(e.what()).find("config identity"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(SweepJournalTest, RefusesSizingMismatch)
{
    const std::string path = tempPath("cmpmem_journal_scale.jsonl");
    {
        SweepJournal journal(path, "jt", /*fresh=*/true);
        journal.record(fixedResult("a", 11));
    }
    const char *prev = std::getenv("CMPMEM_SCALE");
    const std::string saved = prev ? prev : "";
    setenv("CMPMEM_SCALE", fmt("%d", benchScale() + 1).c_str(), 1);
    std::vector<SweepJob> jobs = {fixedJob("a", 0)};
    try {
        SweepJournal::load(path, "jt", jobs);
        ADD_FAILURE() << "merged a journal written at another scale";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Config);
        EXPECT_NE(std::string(e.what()).find("scale"),
                  std::string::npos)
            << e.what();
    }
    if (prev)
        setenv("CMPMEM_SCALE", saved.c_str(), 1);
    else
        unsetenv("CMPMEM_SCALE");
    std::remove(path.c_str());
}

TEST(SweepJournalTest, UnknownJobIdIsSkipped)
{
    const std::string path = tempPath("cmpmem_journal_ghost.jsonl");
    {
        SweepJournal journal(path, "jt", /*fresh=*/true);
        journal.record(fixedResult("ghost", 11));
    }
    std::vector<SweepJob> jobs = {fixedJob("a", 0)};
    auto merged = SweepJournal::load(path, "jt", jobs);
    EXPECT_TRUE(merged.empty());
    std::remove(path.c_str());
}

TEST(SweepJournalTest, MissingJournalMeansFullRun)
{
    std::vector<SweepJob> jobs = {fixedJob("a", 0)};
    auto merged = SweepJournal::load(
        tempPath("cmpmem_journal_nonexistent.jsonl"), "jt", jobs);
    EXPECT_TRUE(merged.empty());
}

// ---------------------------------------------------------------- //
// Kill-then-resume, end to end at unit scale                       //
// ---------------------------------------------------------------- //

TEST(SupervisorResume, KillMidSweepThenResumeMatchesUninterrupted)
{
    const std::string jpath = tempPath("BENCH_resume_ut.journal.jsonl");
    std::remove(jpath.c_str());

    // "killer" takes down the whole sweep process on the first run
    // (the flag is armed only in the forked child's copy of memory).
    bool arm_kill = true;
    auto makeJobs = [&arm_kill] {
        std::vector<SweepJob> jobs;
        jobs.push_back(fixedJob("a", 111));
        SweepJob k = fixedJob("killer", 222);
        bool *flag = &arm_kill;
        auto inner = k.run;
        k.run = [flag, inner] {
            if (*flag)
                ::_exit(42); // hard death, no unwinding, no journal
            return inner();
        };
        jobs.push_back(k);
        jobs.push_back(fixedJob("c", 333));
        return jobs;
    };

    SweepOptions opts;
    opts.jobs = 1; // deterministic order: a, killer, c
    opts.echoLogs = false;
    opts.isolate = SweepIsolate::Off; // the kill must hit the sweep
    opts.journalPath = jpath;

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        runJobs("resume_ut", makeJobs(), opts);
        ::_exit(7); // the kill did not fire
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 42)
        << "the sweep survived the mid-run kill it was supposed to die "
           "from";

    // Resume: "a" merges from the journal, "killer" (now disarmed)
    // and "c" run fresh.
    arm_kill = false;
    opts.resume = true;
    SweepResult resumed = runJobs("resume_ut", makeJobs(), opts);
    EXPECT_TRUE(resumed.allRan());
    EXPECT_EQ(resumed.at("a").attempts, 0) << "merged, not re-run";
    EXPECT_EQ(resumed.at("a").run.stats.execTicks, 111u);
    EXPECT_EQ(resumed.at("killer").attempts, 1);
    EXPECT_EQ(resumed.at("c").run.stats.execTicks, 333u);

    // The acceptance shape: the resumed artifact is bit-identical
    // (stats, digests, config) to an uninterrupted run's.
    SweepOptions plain;
    plain.jobs = 1;
    plain.echoLogs = false;
    plain.isolate = SweepIsolate::Off;
    SweepResult reference = runJobs("resume_ut", makeJobs(), plain);
    CompareReport rep =
        compareArtifacts(JsonValue::parse(reference.toJson()),
                         JsonValue::parse(resumed.toJson()));
    EXPECT_TRUE(rep.identityClean()) << rep.format();
    std::remove(jpath.c_str());
}

// ---------------------------------------------------------------- //
// Integration: real workloads under the sandbox ("long")           //
// ---------------------------------------------------------------- //

TEST(SupervisorIntegration, CrashIsContainedAndSiblingsComplete)
{
    WorkloadParams tiny;
    tiny.scale = 0;
    const SystemConfig cc = makeConfig(2, MemModel::CC);
    const SystemConfig str = makeConfig(2, MemModel::STR);

    std::vector<SweepJob> jobs;
    jobs.emplace_back("crash", "crash", cc, tiny);
    jobs.emplace_back("fir", "fir", cc, tiny);
    jobs.emplace_back("merge/str", "merge", str, tiny);

    SweepOptions opts;
    opts.jobs = 2;
    opts.echoLogs = false;
    opts.isolate = SweepIsolate::On;
    opts.maxRetries = 1; // a real crash is deterministic: 2 attempts

    SweepResult res = runJobs("contain", std::move(jobs), opts);

    const JobResult &crash = res.at("crash");
    EXPECT_FALSE(crash.ran);
    EXPECT_EQ(crash.errorKind, "crash");
    EXPECT_EQ(crash.signal, "SIGSEGV");
    EXPECT_EQ(crash.attempts, 2);
    EXPECT_NE(crash.error.find("SIGSEGV"), std::string::npos)
        << crash.error;
    EXPECT_FALSE(SweepJournal::eligible(crash));

    EXPECT_TRUE(res.at("fir").ran);
    EXPECT_TRUE(res.at("fir").run.verified);
    EXPECT_EQ(res.at("fir").attempts, 1);
    EXPECT_TRUE(res.at("merge/str").ran);
    EXPECT_TRUE(res.at("merge/str").run.verified);
    EXPECT_TRUE(SweepJournal::eligible(res.at("fir")));
    EXPECT_FALSE(res.allRan());
}

TEST(SupervisorIntegration, DeadlineKillsHostWedgeAsTimeout)
{
    WorkloadParams tiny;
    tiny.scale = 0;

    std::vector<SweepJob> jobs;
    jobs.emplace_back("spin", "hostspin", makeConfig(1, MemModel::CC),
                      tiny);
    jobs.emplace_back("fir", "fir", makeConfig(2, MemModel::CC), tiny);

    SweepOptions opts;
    opts.jobs = 2;
    opts.echoLogs = false;
    opts.isolate = SweepIsolate::On;
    opts.jobDeadlineSeconds = 0.3;

    SweepResult res = runJobs("deadline", std::move(jobs), opts);

    const JobResult &spin = res.at("spin");
    EXPECT_FALSE(spin.ran);
    EXPECT_EQ(spin.errorKind, "timeout");
    EXPECT_EQ(spin.signal, "SIGKILL");
    EXPECT_EQ(spin.attempts, 1);
    EXPECT_NE(spin.error.find("deadline"), std::string::npos)
        << spin.error;
    EXPECT_FALSE(SweepJournal::eligible(spin));

    // The deadline is per job: the sibling finishes well inside it
    // and is unaffected by the wedged job's kill.
    EXPECT_TRUE(res.at("fir").ran);
    EXPECT_TRUE(res.at("fir").run.verified);
}

/**
 * The §16 identity contract (labelled "long" in ctest): sandboxed
 * execution reproduces in-process execution bit-for-bit — stats
 * digest (which covers every rendered counter), energy, and
 * verification across real workloads, both models, several shapes.
 */
TEST(SupervisorIntegration, IsolatedMatchesInProcessBitIdentical)
{
    WorkloadParams tiny;
    tiny.scale = 0;

    auto makeSpec = [&] {
        SweepSpec spec("iso_identity");
        spec.base(makeConfig(4, MemModel::CC))
            .baseParams(tiny)
            .workloads({"fir", "merge"})
            .axis("cores", {1, 2},
                  [](SystemConfig &cfg, double v) {
                      cfg.cores = int(v);
                  },
                  0)
            .modelAxis();
        return spec;
    };

    SweepOptions inproc;
    inproc.jobs = 1;
    inproc.echoLogs = false;
    inproc.isolate = SweepIsolate::Off;

    SweepOptions sandboxed;
    sandboxed.jobs = 4;
    sandboxed.echoLogs = false;
    sandboxed.isolate = SweepIsolate::On;

    SweepResult a = runSweep(makeSpec(), inproc);
    SweepResult b = runSweep(makeSpec(), sandboxed);

    ASSERT_EQ(a.jobs().size(), b.jobs().size());
    ASSERT_EQ(a.jobs().size(), 2u * 2u * 2u);
    for (const auto &ja : a.jobs()) {
        const JobResult &jb = b.at(ja.job.id);
        EXPECT_TRUE(ja.ran);
        EXPECT_TRUE(jb.ran);
        EXPECT_EQ(ja.run.stats.toStatSet().digest(),
                  jb.run.stats.toStatSet().digest())
            << ja.job.id;
        EXPECT_EQ(ja.run.energy.coreMj, jb.run.energy.coreMj)
            << ja.job.id;
        EXPECT_EQ(ja.run.energy.l2Mj, jb.run.energy.l2Mj) << ja.job.id;
        EXPECT_EQ(ja.run.energy.dramMj, jb.run.energy.dramMj)
            << ja.job.id;
        EXPECT_EQ(ja.run.verified, jb.run.verified) << ja.job.id;
    }
}

} // namespace
} // namespace cmpmem
