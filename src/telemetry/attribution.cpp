#include "telemetry/attribution.h"

#include <cinttypes>

#include "telemetry/stats_json.h"

namespace rop::telemetry {

ProgressWriter::ProgressWriter(const std::string& path) {
  out_ = std::fopen(path.c_str(), "w");
}

ProgressWriter::~ProgressWriter() {
  if (out_ != nullptr) std::fclose(out_);
}

void ProgressWriter::write_run(const RunHeartbeat& h) {
  if (out_ == nullptr) return;
  std::fprintf(out_,
               "{\"kind\":\"run\",\"cpu_cycles\":%" PRIu64
               ",\"max_cpu_cycles\":%" PRIu64 ",\"instructions\":%" PRIu64
               ",\"target_instructions\":%" PRIu64
               ",\"cores_remaining\":%" PRIu64
               ",\"wall_s\":%.3f,\"mcyc_per_s\":%.3f,\"eta_s\":%.3f,"
               "\"done\":%s}\n",
               h.cpu_cycles, h.max_cpu_cycles, h.instructions,
               h.target_instructions, h.cores_remaining, h.wall_s,
               h.mcyc_per_s, h.eta_s, h.done ? "true" : "false");
  std::fflush(out_);
}

void ProgressWriter::write_campaign(const CampaignHeartbeat& h) {
  if (out_ == nullptr) return;
  const std::string label = JsonWriter::escape(h.last_cell);
  std::fprintf(out_,
               "{\"kind\":\"campaign\",\"done\":%" PRIu64
               ",\"failed\":%" PRIu64 ",\"running\":%" PRIu64
               ",\"total\":%" PRIu64
               ",\"wall_s\":%.3f,\"eta_s\":%.3f,\"last_cell\":\"%s\"}\n",
               h.done, h.failed, h.running, h.total, h.wall_s, h.eta_s,
               label.c_str());
  std::fflush(out_);
}

}  // namespace rop::telemetry
