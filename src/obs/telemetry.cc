#include "obs/telemetry.h"

namespace mntp::obs {

Telemetry*& Telemetry::global_slot() {
  static Telemetry default_instance;
  static Telemetry* current = &default_instance;
  return current;
}

Telemetry& Telemetry::global() { return *global_slot(); }

}  // namespace mntp::obs
