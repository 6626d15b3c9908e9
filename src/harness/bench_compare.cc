#include "harness/bench_compare.hh"

#include <map>
#include <set>

#include "harness/table.hh"
#include "sim/sim_error.hh"

namespace cmpmem
{

namespace
{

std::map<std::string, const JsonValue *>
jobIndex(const JsonValue &artifact)
{
    std::map<std::string, const JsonValue *> index;
    for (const JsonValue &job : artifact.at("results").items()) {
        const std::string &id = job.at("id").asString();
        if (!index.emplace(id, &job).second)
            throwSimError(SimErrorKind::Config,
                          "artifact for sweep %s lists job '%s' twice",
                          artifact.at("sweep").asString().c_str(),
                          id.c_str());
    }
    return index;
}

/**
 * Validate one artifact's envelope and check it is comparable with
 * the baseline: same sweep, same schema, same scale.
 */
void
checkEnvelope(const JsonValue &baseline, const JsonValue &artifact,
              const char *role)
{
    double schema = artifact.at("schema").asNumber();
    if (schema != 2) {
        throwSimError(SimErrorKind::Config,
                      "%s artifact has schema %g; bench_compare "
                      "understands schema 2 (regenerate the baseline "
                      "with scripts/check.sh --update-baselines)",
                      role, schema);
    }
    const std::string &sweep = artifact.at("sweep").asString();
    const std::string &base_sweep = baseline.at("sweep").asString();
    if (sweep != base_sweep) {
        throwSimError(SimErrorKind::Config,
                      "%s artifact is for sweep '%s', baseline is "
                      "'%s'", role, sweep.c_str(), base_sweep.c_str());
    }
    double b = baseline.at("scale").asNumber();
    double f = artifact.at("scale").asNumber();
    if (b != f) {
        throwSimError(SimErrorKind::Config,
                      "refusing to compare sweep %s: %s artifact ran "
                      "at scale=%g but the baseline was produced at "
                      "scale=%g (different sizings legitimately "
                      "change simulated stats)",
                      sweep.c_str(), role, f, b);
    }
}

void
identity(CompareReport &report, const std::string &job,
         const std::string &metric, std::string detail)
{
    report.identity.push_back({job, metric, std::move(detail)});
}

/** Bit-identity over a flat {name: number} object, both ways. */
void
compareScalars(CompareReport &report, const std::string &id,
               const std::string &group, const JsonValue &bobj,
               const JsonValue &fobj)
{
    for (const auto &[name, bval] : bobj.members()) {
        const JsonValue *fval = fobj.find(name);
        if (!fval) {
            identity(report, id, group + '.' + name,
                     "present in baseline, missing from fresh");
            continue;
        }
        if (bval.asNumber() != fval->asNumber()) {
            identity(report, id, group + '.' + name,
                     fmt("baseline %.17g, fresh %.17g",
                         bval.asNumber(), fval->asNumber()));
        }
    }
    for (const auto &[name, fval] : fobj.members()) {
        (void)fval;
        if (!bobj.find(name)) {
            identity(report, id, group + '.' + name,
                     "missing from baseline, present in fresh");
        }
    }
}

/**
 * Per-field config comparison. Cache-policy fields get a hard refusal
 * (throwSimError) rather than an identity issue: a cross-policy diff
 * is a category error — every stat would "regress", drowning real
 * findings — exactly like the scale refusal in checkEnvelope(). Other
 * field mismatches are reported per field so the report names what
 * drifted.
 */
void
compareConfig(CompareReport &report, const std::string &id,
              const JsonValue &bcfg, const JsonValue &fcfg)
{
    static const std::set<std::string> policyFields = {
        "l1_replacement", "l2_replacement", "prefetch_policy",
        "bip_throttle"};

    auto render = [](const JsonValue &v) {
        return v.isString() ? v.asString() : v.dump();
    };

    for (const auto &[name, bval] : bcfg.members()) {
        const JsonValue *fval = fcfg.find(name);
        std::string bs = render(bval);
        if (fval && bval.dump() == fval->dump())
            continue;
        if (policyFields.count(name)) {
            throwSimError(
                SimErrorKind::Config,
                "refusing to compare job '%s': cache-policy field "
                "'%s' differs (baseline %s, fresh %s) — policy "
                "changes legitimately change simulated stats, so "
                "diff within one policy point instead",
                id.c_str(), name.c_str(), bs.c_str(),
                fval ? render(*fval).c_str() : "(absent)");
        }
        identity(report, id, "config." + name,
                 fval ? fmt("baseline %s, fresh %s", bs.c_str(),
                            render(*fval).c_str())
                      : "present in baseline, missing from fresh");
    }
    for (const auto &[name, fval] : fcfg.members()) {
        if (bcfg.find(name))
            continue;
        if (policyFields.count(name)) {
            throwSimError(
                SimErrorKind::Config,
                "refusing to compare job '%s': cache-policy field "
                "'%s' is absent from the baseline (fresh %s) — "
                "regenerate baselines with scripts/check.sh "
                "--update-baselines",
                id.c_str(), name.c_str(), render(fval).c_str());
        }
        identity(report, id, "config." + name,
                 "missing from baseline, present in fresh");
    }
}

void
compareJob(CompareReport &report, const std::string &id,
           const JsonValue &bjob, const JsonValue &fjob)
{
    for (const char *flag : {"ran", "verified"}) {
        bool b = bjob.at(flag).asBool();
        bool f = fjob.at(flag).asBool();
        if (b != f) {
            identity(report, id, flag,
                     fmt("baseline %s, fresh %s", b ? "true" : "false",
                         f ? "true" : "false"));
        }
    }
    compareScalars(report, id, "stats", bjob.at("stats"),
                   fjob.at("stats"));
    compareScalars(report, id, "energy", bjob.at("energy"),
                   fjob.at("energy"));
    const std::string &bd = bjob.at("stats_digest").asString();
    const std::string &fd = fjob.at("stats_digest").asString();
    if (bd != fd)
        identity(report, id, "stats_digest",
                 "baseline " + bd + ", fresh " + fd);
    compareConfig(report, id, bjob.at("config"), fjob.at("config"));
}

} // namespace

std::string
CompareReport::format() const
{
    std::string out =
        fmt("bench_compare %s: %zu job%s vs baseline\n", sweep.c_str(),
            jobsCompared, jobsCompared == 1 ? "" : "s");
    for (const CompareIssue &i : identity) {
        out += fmt("  IDENTITY %s %s: %s\n", i.jobId.c_str(),
                   i.metric.c_str(), i.detail.c_str());
    }
    for (const std::string &n : notes)
        out += "  note: " + n + '\n';
    if (identity.empty())
        out += "  OK: simulated results bit-identical\n";
    return out;
}

CompareReport
compareArtifacts(const JsonValue &baseline, const JsonValue &fresh)
{
    checkEnvelope(baseline, baseline, "baseline");
    checkEnvelope(baseline, fresh, "fresh");

    CompareReport report;
    report.sweep = baseline.at("sweep").asString();
    const auto baseJobs = jobIndex(baseline);
    const auto freshJobs = jobIndex(fresh);
    report.jobsCompared = baseJobs.size();
    for (const auto &[id, bjob] : baseJobs) {
        auto it = freshJobs.find(id);
        if (it == freshJobs.end())
            identity(report, id, "(job)", "missing from fresh");
        else
            compareJob(report, id, *bjob, *it->second);
    }
    for (const auto &[id, fjob] : freshJobs) {
        (void)fjob;
        if (!baseJobs.count(id)) {
            report.notes.push_back(
                fmt("job '%s' is new (not in baseline); extend the "
                    "baseline to cover it",
                    id.c_str()));
        }
    }
    return report;
}

} // namespace cmpmem
