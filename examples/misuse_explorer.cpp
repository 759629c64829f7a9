// misuse_explorer: interactive CLI over the Table-1 engine.
//
// Run a single paper scenario by name and see the observed-vs-paper
// verdict — useful when studying one lock's misuse behavior without
// running the whole matrix.
//
//   ./misuse_explorer            # list scenarios
//   ./misuse_explorer mcs        # run the MCS §3.4 scripts
//   ./misuse_explorer all        # the full Table 1 (same as the bench)
//
// Scenarios whose lock is in the registry finish with a shield drill:
// the four canonical misuses against shield<lock>, with the shield's
// interception counter printed after each — detection, not just
// survival.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "core/lock_registry.hpp"
#include "response/response.hpp"
#include "verify/misuse_matrix.hpp"

using namespace resilock::verify;

namespace {

// Scenario key -> registry base algorithm (the sw/ locks have no
// registry entry and skip the drill).
const std::map<std::string, std::string>& registry_names() {
  static const std::map<std::string, std::string> m = {
      {"tas", "TAS"},         {"ticket", "Ticket"},
      {"abql", "ABQL"},       {"gt", "GT"},
      {"mcs", "MCS"},         {"clh", "CLH"},
      {"mcs_k42", "MCS_K42"}, {"hemlock", "Hemlock"},
      {"hmcs", "HMCS"},       {"hclh", "HCLH"},
      {"hbo", "HBO"},         {"cohort", "C-TKT-TKT"},
  };
  return m;
}

void shield_counter_drill(const std::string& base) {
  using namespace resilock;
  response::ResponseRulesGuard pin("");  // misuse=suppress
  auto lock = make_lock(shielded_name(base), kOriginal);
  std::printf("\nshield drill on %s (ORIGINAL protocol behind the "
              "generic shield):\n",
              shielded_name(base).c_str());
  auto step = [&](const char* what) {
    std::printf("  %-46s -> %llu misuse(s) intercepted so far\n", what,
                static_cast<unsigned long long>(lock->misuse_total()));
  };
  lock->release();
  step("unbalanced unlock of a free lock");
  lock->acquire();
  lock->release();
  lock->release();
  step("double unlock by the previous owner");
  lock->acquire();
  lock->acquire();
  lock->release();
  lock->release();
  step("reentrant relock (absorbed as a depth bump)");
  std::atomic<bool> held{false}, done{false};
  std::thread holder([&] {
    lock->acquire();
    held.store(true);
    while (!done.load()) std::this_thread::yield();
    lock->release();
  });
  while (!held.load()) std::this_thread::yield();
  lock->release();
  done.store(true);
  holder.join();
  step("unlock while another thread holds the lock");
  lock->acquire();
  lock->release();
  std::printf("  lock still functional after every misuse.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::map<std::string, MisuseReport (*)()> scenarios = {
      {"tas", misuse_tas},
      {"ticket", misuse_ticket},
      {"abql", misuse_abql},
      {"gt", misuse_graunke_thakkar},
      {"mcs", misuse_mcs},
      {"clh", misuse_clh},
      {"mcs_k42", misuse_mcs_k42},
      {"hemlock", misuse_hemlock},
      {"hmcs", misuse_hmcs},
      {"hclh", misuse_hclh},
      {"hbo", misuse_hbo},
      {"cohort", misuse_cohort_tkt_tkt},
      {"crw", misuse_crw_np},
      {"peterson", misuse_peterson},
      {"fischer", misuse_fischer},
      {"lamport1", misuse_lamport1},
      {"lamport2", misuse_lamport2},
      {"bakery", misuse_bakery},
  };

  if (argc < 2) {
    std::printf("usage: %s <scenario>|all\n\nscenarios:\n", argv[0]);
    for (const auto& [name, _] : scenarios) std::printf("  %s\n",
                                                        name.c_str());
    return 0;
  }

  if (std::strcmp(argv[1], "all") == 0) {
    print_misuse_matrix(run_misuse_matrix());
    return 0;
  }

  const auto it = scenarios.find(argv[1]);
  if (it == scenarios.end()) {
    std::fprintf(stderr, "unknown scenario: %s\n", argv[1]);
    return 1;
  }
  const MisuseReport r = it->second();
  print_misuse_matrix({r});
  std::printf("\nremedy: %s\n", r.remedy.c_str());

  const auto reg = registry_names().find(it->first);
  if (reg != registry_names().end()) {
    shield_counter_drill(reg->second);
  }
  return 0;
}
