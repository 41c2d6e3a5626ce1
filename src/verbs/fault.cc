#include "verbs/fault.h"

namespace hatrpc::verbs {

namespace {

const char* note_name(FaultPlan::Note k) {
  using N = FaultPlan::Note;
  switch (k) {
    case N::kDelay: return "delay";
    case N::kDup: return "dup";
    case N::kDrop: return "drop";
    case N::kCorrupt: return "corrupt";
    case N::kRetryExhausted: return "retry-exhausted";
    case N::kRnrExhausted: return "rnr-exhausted";
    case N::kUnreachable: return "unreachable";
    case N::kRemoteAccessNak: return "remote-access-nak";
    case N::kQpError: return "qp-error";
    case N::kNodeCrash: return "node-crash";
    case N::kNodeRestart: return "node-restart";
    case N::kRevokeMrs: return "revoke-mrs";
  }
  return "";
}

}  // namespace

std::vector<std::string> FaultPlan::trace() const {
  using N = Note;
  std::vector<std::string> out;
  out.reserve(records_.size());
  for (const Record& r : records_) {
    std::string line = "t=" + std::to_string(r.t) + " ";
    switch (r.kind) {
      case N::kQpError:
        line += "qp-error qp=" + std::to_string(r.id);
        break;
      case N::kNodeCrash:
      case N::kNodeRestart:
      case N::kRevokeMrs:
        line += note_name(r.kind);
        line += " node=" + std::to_string(r.id);
        break;
      default:  // a WQE's fault: "<kind> qp=<qp> wr=<wr_id>[ <arg>]"
        line += note_name(r.kind);
        line += " qp=" + std::to_string(r.id) + " wr=" + std::to_string(r.wr);
        if (r.kind == N::kDelay) line += " ns=" + std::to_string(r.arg);
        if (r.kind == N::kDrop || r.kind == N::kCorrupt)
          line += " attempt=" + std::to_string(r.arg);
        break;
    }
    out.push_back(std::move(line));
  }
  return out;
}

}  // namespace hatrpc::verbs
