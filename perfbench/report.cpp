#include "report.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

bool Report::Write(const std::string& path) const {
  std::ostringstream os;
  os << "{\"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"samples\": {";
  bool first = true;
  for (const auto& [name, series] : samples) {
    os << (first ? "" : ", ") << Quote(name) << ": [";
    for (size_t i = 0; i < series.size(); ++i) {
      os << (i ? "," : "") << Number(series[i]);
    }
    os << "]";
    first = false;
  }
  os << "}, \"values\": {";
  first = true;
  for (const auto& [name, v] : values) {
    os << (first ? "" : ", ") << Quote(name) << ": " << Number(v);
    first = false;
  }
  os << "}, \"notes\": [";
  for (size_t i = 0; i < notes.size(); ++i) {
    os << (i ? ", " : "") << Quote(notes[i]);
  }
  os << "]}\n";
  std::ofstream f(path);
  f << os.str();
  f.close();
  return static_cast<bool>(f);
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the file reports kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
