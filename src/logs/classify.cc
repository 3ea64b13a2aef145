#include "logs/classify.h"

#include <algorithm>
#include <cctype>
#include <string>

namespace mntp::logs {

namespace {

std::string lowercase(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

}  // namespace

std::optional<std::size_t> provider_from_hostname(std::string_view hostname) {
  const std::string h = lowercase(hostname);
  // Longest-keyword-first so "broadband" wins over "net"-style substrings.
  std::optional<std::size_t> best;
  std::size_t best_len = 0;
  for (std::size_t i = 0; i < kPaperProviders.size(); ++i) {
    const std::string kw = lowercase(kPaperProviders[i].keyword);
    if (kw.size() > best_len && h.find(kw) != std::string::npos) {
      best = i;
      best_len = kw.size();
    }
  }
  return best;
}

std::optional<ProviderCategory> category_from_hostname(
    std::string_view hostname) {
  const auto idx = provider_from_hostname(hostname);
  if (!idx) return std::nullopt;
  return kPaperProviders[*idx].category;
}

Protocol classify_protocol(const ntp::NtpPacket& request) {
  return request.looks_like_sntp_request() ? Protocol::kSntp : Protocol::kNtp;
}

}  // namespace mntp::logs
