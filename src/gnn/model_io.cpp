#include "gnn/model_io.h"

#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace gvex {

namespace {
void AppendMatrix(const Matrix& m, std::string* out) {
  *out += StrFormat("mat %d %d\n", m.rows(), m.cols());
  for (int r = 0; r < m.rows(); ++r) {
    std::string line;
    for (int c = 0; c < m.cols(); ++c) {
      if (c > 0) line += " ";
      line += StrFormat("%.9g", m.at(r, c));
    }
    *out += line + "\n";
  }
}

Result<Matrix> ReadMatrix(std::istringstream* in) {
  std::string tag;
  int rows = 0;
  int cols = 0;
  if (!(*in >> tag >> rows >> cols) || tag != "mat") {
    return Status::InvalidArgument("expected 'mat <rows> <cols>'");
  }
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      float v;
      if (!(*in >> v)) return Status::InvalidArgument("truncated matrix data");
      m.at(r, c) = v;
    }
  }
  return m;
}
}  // namespace

std::string SerializeModel(const GcnModel& model) {
  const GcnConfig& cfg = model.config();
  std::string out = StrFormat(
      "gcn_model v1\nconfig %d %d %d %d %d\n", cfg.input_dim, cfg.hidden_dim,
      cfg.num_layers, cfg.num_classes,
      cfg.readout == ReadoutKind::kMax ? 0 : 1);
  for (const auto& layer : model.gcn_layers()) {
    AppendMatrix(layer.weight(), &out);
  }
  AppendMatrix(model.head().weight(), &out);
  out += "bias";
  for (float b : model.head().bias()) out += StrFormat(" %.9g", b);
  out += "\n";
  return out;
}

Result<GcnModel> ParseModel(const std::string& text) {
  std::istringstream in(text);
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "gcn_model" || version != "v1") {
    return Status::InvalidArgument("bad model header");
  }
  GcnConfig cfg;
  int readout = 0;
  std::string ctag;
  if (!(in >> ctag >> cfg.input_dim >> cfg.hidden_dim >> cfg.num_layers >>
        cfg.num_classes >> readout) ||
      ctag != "config") {
    return Status::InvalidArgument("bad model config line");
  }
  cfg.readout = readout == 0 ? ReadoutKind::kMax : ReadoutKind::kMean;
  Rng rng(0);
  GcnModel model(cfg, &rng);
  for (int k = 0; k < cfg.num_layers; ++k) {
    auto m = ReadMatrix(&in);
    if (!m.ok()) return m.status();
    if (m.value().rows() != model.gcn_layers()[static_cast<size_t>(k)]
                                 .weight()
                                 .rows() ||
        m.value().cols() != model.gcn_layers()[static_cast<size_t>(k)]
                                 .weight()
                                 .cols()) {
      return Status::InvalidArgument("layer weight shape mismatch");
    }
    *model.MutableParams()[static_cast<size_t>(k)] = std::move(m).value();
  }
  auto fcw = ReadMatrix(&in);
  if (!fcw.ok()) return fcw.status();
  *model.MutableParams().back() = std::move(fcw).value();
  std::string btag;
  if (!(in >> btag) || btag != "bias") {
    return Status::InvalidArgument("missing bias line");
  }
  for (auto& b : *model.MutableFcBias()) {
    if (!(in >> b)) return Status::InvalidArgument("truncated bias");
  }
  return model;
}

Status SaveModel(const std::string& path, const GcnModel& model) {
  std::ofstream f(path);
  if (!f.good()) return Status::IOError("cannot open " + path);
  f << SerializeModel(model);
  if (!f.good()) return Status::IOError("write failed for " + path);
  return Status::OK();
}

Result<GcnModel> LoadModel(const std::string& path) {
  std::ifstream f(path);
  if (!f.good()) return Status::IOError("cannot open " + path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ParseModel(ss.str());
}

}  // namespace gvex
