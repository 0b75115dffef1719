#include "sim/report.hh"

#include "observe/export.hh"

namespace bsim {

void
writeJson(JsonWriter &j, const CacheStats &s)
{
    j.beginObject();
    j.kv("accesses", s.accesses);
    j.kv("hits", s.hits);
    j.kv("misses", s.misses);
    j.kv("missRate", s.missRate());
    j.kv("readAccesses", s.readAccesses());
    j.kv("readMisses", s.readMisses());
    j.kv("writeAccesses", s.writeAccesses());
    j.kv("writeMisses", s.writeMisses());
    j.kv("fetchAccesses", s.fetchAccesses());
    j.kv("fetchMisses", s.fetchMisses());
    j.kv("writebacks", s.writebacks);
    j.kv("writethroughs", s.writethroughs);
    j.kv("refills", s.refills);
    j.endObject();
}

void
writeJson(JsonWriter &j, const PdStats &s)
{
    j.beginObject();
    j.kv("pdHitCacheMiss", s.pdHitCacheMiss);
    j.kv("pdMiss", s.pdMiss);
    j.kv("pdHitRateOnMiss", s.pdHitRateOnMiss());
    j.kv("missPredictionRate", s.missPredictionRate());
    j.endObject();
}

void
writeJson(JsonWriter &j, const BalanceReport &b)
{
    j.beginObject();
    j.kv("frequentHitSetsPct", b.fhsPct);
    j.kv("hitsInFrequentHitSetsPct", b.chPct);
    j.kv("frequentMissSetsPct", b.fmsPct);
    j.kv("missesInFrequentMissSetsPct", b.cmPct);
    j.kv("lessAccessedSetsPct", b.lasPct);
    j.kv("accessesInLessAccessedSetsPct", b.tcaPct);
    j.endObject();
}

namespace {

/**
 * The shared per-run body of the bsim-stats-v1 schema: every key of
 * one run except the document framing (schema/driver), emitted into an
 * already-open object. Used verbatim for the top level of single runs
 * and for each element of a sharded document's "shards" array.
 */
void
writeStatsBody(JsonWriter &j, const MissRateResult &r)
{
    j.kv("workload", r.workload);
    j.kv("config", r.config);
    j.key("stats");
    writeJson(j, r.stats);
    if (r.pd) {
        j.key("pd");
        writeJson(j, *r.pd);
    }
    if (r.victimHits)
        j.kv("victimHits", r.victimHits);
    j.key("balance");
    writeJson(j, r.balance);
    if (r.observer) {
        j.key("observer");
        writeJson(j, *r.observer);
    }
}

} // namespace

std::string
toStatsJson(const MissRateResult &r, const std::string &driver)
{
    JsonWriter j;
    j.beginObject();
    j.kv("schema", "bsim-stats-v1");
    j.kv("driver", driver);
    writeStatsBody(j, r);
    j.endObject();
    return j.str();
}

std::string
toStatsJson(const TraceSweepResult &r, const std::string &workload,
            const std::string &config)
{
    JsonWriter j;
    j.beginObject();
    j.kv("schema", "bsim-stats-v1");
    j.kv("driver", "sharded");
    j.kv("workload", workload);
    j.kv("config", config);
    j.key("stats");
    writeJson(j, r.total);
    if (r.pd) {
        j.key("pd");
        writeJson(j, *r.pd);
    }
    if (r.victimHits)
        j.kv("victimHits", r.victimHits);
    if (r.observer) {
        // The merged per-set histogram supports the same Table 7
        // classification a serial run reports; without an observer the
        // sharded document has no top-level balance (per-shard ones are
        // in the shards array).
        j.key("balance");
        writeJson(j, analyzeBalance(r.observer->perSet));
        j.key("observer");
        writeJson(j, *r.observer);
    }
    j.key("shards").beginArray();
    for (const MissRateResult &s : r.shards) {
        j.beginObject();
        writeStatsBody(j, s);
        j.endObject();
    }
    j.endArray();
    j.endObject();
    return j.str();
}

std::string
toJson(const TimedResult &r)
{
    JsonWriter j;
    j.beginObject();
    j.kv("workload", r.workload);
    j.kv("config", r.config);
    j.kv("uops", r.cpu.uops);
    j.kv("cycles", r.cpu.cycles);
    j.kv("ipc", r.cpu.ipc());
    j.key("l1i");
    writeJson(j, r.l1i);
    j.key("l1d");
    writeJson(j, r.l1d);
    j.key("l2");
    writeJson(j, r.l2);
    j.key("activity");
    j.beginObject();
    j.kv("l2Accesses", r.activity.l2Accesses);
    j.kv("offchipAccesses", r.activity.offchipAccesses);
    j.kv("victimProbes", r.activity.victimProbes);
    j.kv("pdPredictedMisses", r.activity.pdPredictedMisses);
    j.endObject();
    j.endObject();
    return j.str();
}

} // namespace bsim
