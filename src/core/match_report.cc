#include "core/match_report.h"

#include "util/json_writer.h"

namespace ems {

std::string MatchResultToJson(const MatchResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.Key("correspondences");
  w.BeginArray();
  for (const Correspondence& c : result.correspondences) {
    w.BeginObject();
    w.Key("left");
    w.BeginArray();
    for (const std::string& name : c.events1) w.String(name);
    w.EndArray();
    w.Key("right");
    w.BeginArray();
    for (const std::string& name : c.events2) w.String(name);
    w.EndArray();
    w.Key("similarity");
    w.Number(c.similarity);
    // Only prob runs carry calibrated confidences; omitting the key
    // otherwise keeps the report byte-identical to pre-prob builds.
    if (result.soft.has_value()) {
      w.Key("confidence");
      w.Number(c.confidence);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("stats");
  w.BeginObject();
  w.Key("iterations");
  w.Int(result.ems_stats.iterations);
  w.Key("formula_evaluations");
  w.Int(static_cast<long long>(result.ems_stats.formula_evaluations));
  w.Key("composite_merges");
  w.Int(result.composite_stats.merges_accepted);
  w.Key("composite_candidates_evaluated");
  w.Int(result.composite_stats.candidates_evaluated);
  w.EndObject();
  w.Key("graphs");
  w.BeginObject();
  w.Key("left_events");
  w.Int(static_cast<long long>(result.graph1.NumNodes()) -
        (result.graph1.has_artificial() ? 1 : 0));
  w.Key("right_events");
  w.Int(static_cast<long long>(result.graph2.NumNodes()) -
        (result.graph2.has_artificial() ? 1 : 0));
  w.EndObject();
  if (result.soft.has_value()) {
    const prob::EmStats& em = result.soft->stats;
    w.Key("prob");
    w.BeginObject();
    w.Key("iterations");
    w.Int(em.iterations);
    w.Key("converged");
    w.Bool(em.converged);
    w.Key("final_delta");
    w.Number(em.final_delta);
    w.Key("mean_entropy");
    w.Number(em.mean_entropy);
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

}  // namespace ems
