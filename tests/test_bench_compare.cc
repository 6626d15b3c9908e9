/**
 * @file
 * The baseline identity gate, end to end (DESIGN.md §14): the JSON
 * reader must reject every malformed artifact loudly, and
 * bench_compare must hold simulated stats to bit-identity while
 * ignoring the host-time-derived fields. The doctored-artifact cases
 * are the executable spec for "the gate fails with the offending
 * metric named".
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "cmpmem.hh"

namespace cmpmem
{
namespace
{

// ---------------------------------------------------------------- //
// JsonValue: strict parsing                                        //
// ---------------------------------------------------------------- //

SimErrorKind
parseErrorKind(const std::string &text)
{
    try {
        JsonValue::parse(text);
    } catch (const SimError &e) {
        return e.kind();
    }
    ADD_FAILURE() << "parse accepted: " << text;
    return SimErrorKind::Model;
}

TEST(Json, ParsesAndRoundTripsExactDoubles)
{
    const double v = 0.1 + 0.2; // not representable exactly
    char buf[64];
    std::snprintf(buf, sizeof(buf), "{\"x\": %.17g}", v);
    JsonValue doc = JsonValue::parse(buf);
    EXPECT_EQ(doc.at("x").asNumber(), v);

    JsonValue again = JsonValue::parse(doc.dump());
    EXPECT_EQ(again.at("x").asNumber(), v);

    // JSON has no NaN or infinity: they are stored as 0, so every
    // dump parses back.
    EXPECT_EQ(JsonValue::makeNumber(std::nan("")).dumpCompact(), "0");
    EXPECT_EQ(JsonValue::makeNumber(-HUGE_VAL).dumpCompact(), "0");
}

TEST(Json, PreservesInsertionOrderAndNesting)
{
    JsonValue doc = JsonValue::parse(
        "{\"b\": [1, {\"k\": \"v\"}], \"a\": true, \"n\": null}");
    ASSERT_EQ(doc.members().size(), 3u);
    EXPECT_EQ(doc.members()[0].first, "b");
    EXPECT_EQ(doc.members()[2].first, "n");
    EXPECT_TRUE(doc.at("n").isNull());
    EXPECT_EQ(doc.at("b").items()[1].at("k").asString(), "v");
}

TEST(Json, EscapesRoundTrip)
{
    JsonValue doc = JsonValue::parse(
        "{\"s\": \"a\\\"b\\\\c\\n\\t\\u0041\"}");
    EXPECT_EQ(doc.at("s").asString(), "a\"b\\c\n\tA");
    EXPECT_EQ(JsonValue::parse(doc.dump()).at("s").asString(),
              "a\"b\\c\n\tA");
}

TEST(Json, RejectsTruncatedInput)
{
    for (const char *bad :
         {"", "{", "{\"a\": ", "[1, 2", "{\"a\": 1,", "\"unterminated",
          "{\"a\": tru", "12e", "{\"a\": 1} trailing"}) {
        EXPECT_EQ(parseErrorKind(bad), SimErrorKind::Config) << bad;
    }
}

TEST(Json, RejectsDuplicateKeys)
{
    EXPECT_EQ(parseErrorKind("{\"a\": 1, \"a\": 2}"),
              SimErrorKind::Config);
}

TEST(Json, ParseErrorNamesTheLine)
{
    try {
        JsonValue::parse("{\n  \"a\": 1,\n  \"b\": oops\n}");
        FAIL() << "accepted invalid literal";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Json, ParseFileRejectsMissingFile)
{
    try {
        JsonValue::parseFile("/nonexistent/BENCH_nope.json");
        FAIL() << "accepted missing file";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Config);
    }
}

// ---------------------------------------------------------------- //
// bench_compare semantics on a real sweep artifact                 //
// ---------------------------------------------------------------- //

/**
 * A real artifact from the real writer: two cheap custom-run jobs
 * with fixed simulated stats and a controlled host cost, so every
 * derived field (the stats digest) is produced by the same code path
 * the benches use.
 */
JsonValue
makeArtifact()
{
    auto fixed = [](std::uint64_t events, Tick ticks) {
        return [events, ticks] {
            RunResult r;
            r.stats.eventsExecuted = events;
            r.stats.peakPendingEvents = 8;
            r.stats.execTicks = ticks;
            r.hostSeconds = 0.25;
            r.verified = true;
            return r;
        };
    };
    std::vector<SweepJob> jobs;
    jobs.emplace_back("alpha", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{},
                      fixed(1000, 5000));
    jobs.emplace_back("beta", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{},
                      fixed(2000, 9000));
    SweepOptions opts;
    opts.jobs = 1;
    return JsonValue::parse(
        runJobs("gate_test", std::move(jobs), opts).toJson());
}

JsonValue &
jobNamed(JsonValue &artifact, const std::string &id)
{
    for (JsonValue &job : artifact.at("results").items())
        if (job.at("id").asString() == id)
            return job;
    throw std::runtime_error("no job " + id);
}

TEST(BenchCompare, IdenticalArtifactsCompareClean)
{
    JsonValue base = makeArtifact();
    CompareReport rep = compareArtifacts(base, base);
    EXPECT_TRUE(rep.identityClean());
    EXPECT_EQ(rep.exitCode(), 0);
    EXPECT_EQ(rep.jobsCompared, 2u);
}

TEST(BenchCompare, DoctoredStatFailsNamingTheMetric)
{
    JsonValue base = makeArtifact();
    JsonValue fresh = base;
    JsonValue &stats = jobNamed(fresh, "beta").at("stats");
    stats.set("sim.events_executed",
              JsonValue::makeNumber(
                  stats.at("sim.events_executed").asNumber() + 1));

    CompareReport rep = compareArtifacts(base, fresh);
    EXPECT_EQ(rep.exitCode(), 1);
    ASSERT_EQ(rep.identity.size(), 1u);
    EXPECT_EQ(rep.identity[0].jobId, "beta");
    EXPECT_EQ(rep.identity[0].metric, "stats.sim.events_executed");
    // The formatted report names the metric too — that text is what
    // check.sh --full surfaces.
    EXPECT_NE(rep.format().find("stats.sim.events_executed"),
              std::string::npos);
}

TEST(BenchCompare, DigestDriftIsAnIdentityFailure)
{
    JsonValue base = makeArtifact();
    JsonValue fresh = base;
    jobNamed(fresh, "alpha")
        .set("stats_digest",
             JsonValue::makeString("fnv1a:0000000000000000"));
    CompareReport rep = compareArtifacts(base, fresh);
    EXPECT_EQ(rep.exitCode(), 1);
    ASSERT_EQ(rep.identity.size(), 1u);
    EXPECT_EQ(rep.identity[0].metric, "stats_digest");
}

TEST(BenchCompare, MissingJobIsAnIdentityFailure)
{
    JsonValue base = makeArtifact();
    JsonValue fresh = base;
    fresh.at("results").items().pop_back();
    CompareReport rep = compareArtifacts(base, fresh);
    EXPECT_EQ(rep.exitCode(), 1);
    ASSERT_EQ(rep.identity.size(), 1u);
    EXPECT_EQ(rep.identity[0].jobId, "beta");
}

TEST(BenchCompare, HostFieldsAreExcludedFromIdentity)
{
    // Every host-time member 10x slower: host time is not the
    // baselines' business (benchmark/ judges it), so the gate stays
    // clean.
    JsonValue base = makeArtifact();
    JsonValue fresh = base;
    auto scale = [](JsonValue &obj, const char *name, double factor) {
        obj.set(name, JsonValue::makeNumber(obj.at(name).asNumber() *
                                            factor));
    };
    for (const char *id : {"alpha", "beta"})
        scale(jobNamed(fresh, id), "host_seconds", 10);
    scale(fresh, "wall_seconds", 10);
    scale(fresh, "serial_seconds", 10);
    scale(fresh, "speedup", 0.1);
    scale(fresh, "workers", 10);
    CompareReport rep = compareArtifacts(base, fresh);
    EXPECT_TRUE(rep.identityClean());
    EXPECT_EQ(rep.exitCode(), 0);
    EXPECT_EQ(rep.format().find("host"), std::string::npos)
        << rep.format();
}

TEST(BenchCompare, RetryBookkeepingIsExcludedFromIdentity)
{
    // attempts counts sandbox re-dispatches (DESIGN.md §16) — host
    // scheduling noise, like host_seconds. A baseline recorded before
    // the field existed must also still compare clean against fresh
    // artifacts that carry it.
    JsonValue base = makeArtifact();
    JsonValue fresh = base;
    for (const char *id : {"alpha", "beta"}) {
        JsonValue &job = jobNamed(fresh, id);
        job.set("attempts", JsonValue::makeNumber(3));
    }
    CompareReport rep = compareArtifacts(base, fresh);
    EXPECT_TRUE(rep.identityClean());
    EXPECT_EQ(rep.exitCode(), 0);

    std::string text = base.dump();
    for (std::size_t pos = text.find("\"attempts\":");
         pos != std::string::npos;
         pos = text.find("\"attempts\":", pos)) {
        std::size_t end = text.find(',', pos);
        ASSERT_NE(end, std::string::npos);
        text.erase(pos, end - pos + 1);
    }
    JsonValue old = JsonValue::parse(text);
    EXPECT_TRUE(compareArtifacts(old, fresh).identityClean());
}

TEST(BenchCompare, RefusesDifferentSizings)
{
    JsonValue base = makeArtifact();
    JsonValue fresh = base;
    fresh.set("scale", JsonValue::makeNumber(
                           fresh.at("scale").asNumber() + 1));
    try {
        compareArtifacts(base, fresh);
        FAIL() << "compared across scales";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Config);
        EXPECT_NE(std::string(e.what()).find("scale="),
                  std::string::npos)
            << e.what();
    }
}

TEST(BenchCompare, RefusesCrossPolicyDiffNamingTheField)
{
    // A policy change is a different experiment, not a regression:
    // the gate must refuse the comparison outright (like a sizing
    // mismatch), naming the policy field and both values.
    JsonValue base = makeArtifact();
    JsonValue fresh = base;
    jobNamed(fresh, "alpha")
        .at("config")
        .set("l1_replacement", JsonValue::makeString("MIP"));
    try {
        compareArtifacts(base, fresh);
        FAIL() << "compared across replacement policies";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Config);
        std::string msg = e.what();
        EXPECT_NE(msg.find("l1_replacement"), std::string::npos) << msg;
        EXPECT_NE(msg.find("MIP"), std::string::npos) << msg;
        EXPECT_NE(msg.find("LRU"), std::string::npos) << msg;
    }
}

TEST(BenchCompare, NonPolicyConfigDriftNamesTheField)
{
    // Other config drift stays a per-field identity issue so the
    // report says exactly what moved.
    JsonValue base = makeArtifact();
    JsonValue fresh = base;
    jobNamed(fresh, "alpha")
        .at("config")
        .set("cores", JsonValue::makeNumber(8));
    CompareReport rep = compareArtifacts(base, fresh);
    EXPECT_EQ(rep.exitCode(), 1);
    ASSERT_EQ(rep.identity.size(), 1u);
    EXPECT_EQ(rep.identity[0].jobId, "alpha");
    EXPECT_EQ(rep.identity[0].metric, "config.cores");
}

TEST(BenchCompare, RefusesUnknownSchemaAndForeignSweep)
{
    JsonValue base = makeArtifact();
    JsonValue old = base;
    old.set("schema", JsonValue::makeNumber(1));
    EXPECT_THROW(compareArtifacts(base, old), SimError);

    JsonValue other = base;
    other.set("sweep", JsonValue::makeString("some_other_sweep"));
    EXPECT_THROW(compareArtifacts(base, other), SimError);
}

TEST(BenchCompare, NewJobIsANoteNotAFailure)
{
    JsonValue base = makeArtifact();
    JsonValue fresh = base;
    base.at("results").items().pop_back(); // baseline predates "beta"
    CompareReport rep = compareArtifacts(base, fresh);
    EXPECT_EQ(rep.exitCode(), 0);
    ASSERT_EQ(rep.notes.size(), 1u);
    EXPECT_NE(rep.notes[0].find("beta"), std::string::npos);
}

TEST(BenchCompare, TruncatedArtifactFileIsRejected)
{
    JsonValue base = makeArtifact();
    std::string full = base.dump();
    std::string path =
        testing::TempDir() + "/BENCH_gate_test_truncated.json";
    {
        // Simulate a crash mid-write: half the document.
        std::ofstream ofs(path, std::ios::trunc);
        ofs << full.substr(0, full.size() / 2);
    }
    try {
        JsonValue::parseFile(path);
        FAIL() << "accepted truncated artifact";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Config);
        // The error names the file, so the gate's output says which
        // artifact is corrupt.
        EXPECT_NE(std::string(e.what()).find(path),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace cmpmem
