// Fuzz the stateful IPFIX message decoder; two passes per input exercise
// the template cache like a real export stream.
#include <span>

#include "flow/ipfix.hpp"
#include "fuzz_driver.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace booterscope;
  flow::ipfix::MessageDecoder decoder(/*max_templates=*/4);
  const std::span<const std::uint8_t> bytes(data, size);
  for (int pass = 0; pass < 2; ++pass) {
    const auto result = decoder.decode(bytes);
    if (result.has_value()) {
      std::uint64_t total = 0;
      for (const auto& record : result->records) total += record.packets;
      (void)total;
    }
  }
  return 0;
}
