#include "experiments/testbed.hpp"

#include "common/strutil.hpp"

namespace cia::experiments {

namespace {

oskernel::MachineConfig machine_config(const TestbedOptions& options) {
  oskernel::MachineConfig cfg;
  cfg.hostname = "node0";
  cfg.seed = options.seed;
  cfg.ima_policy = options.ima_policy;
  cfg.ima_config = options.ima_config;
  return cfg;
}

}  // namespace

Testbed::Testbed(const TestbedOptions& options)
    : clock(),
      tpm_ca("tpm-manufacturer-sim", to_bytes("manufacturer-root-seed")),
      archive(options.archive, options.seed),
      mirror(&archive),
      network(&clock, options.seed ^ 0x6e657473696dull),
      registrar(&network, &clock, options.seed ^ 0x726567ull),
      verifier(&network, &clock, options.seed ^ 0x766572ull,
               options.verifier_config),
      machine(machine_config(options), tpm_ca, &clock),
      apt(&machine, options.cost) {
  registrar.trust_manufacturer(tpm_ca.public_key());
  agent_ = std::make_unique<keylime::Agent>(&machine, &network);

  // Provision the machine image: the well-known core, a slice of the
  // generated population, and the running kernel's packages.
  provisioned = {"bash",   "coreutils", "python3", "openssl", "libc6",
                 "systemd", "curl",     "openssh", "sudo",    "tar"};
  for (std::size_t i = 0; i < options.provision_extra; ++i) {
    const std::string name = strformat("pkg-%04zu", i);
    if (archive.find(name)) provisioned.push_back(name);
  }
  const std::string kver = machine.kernel_version();
  if (archive.find("linux-image-" + kver)) {
    provisioned.push_back("linux-image-" + kver);
    provisioned.push_back("linux-modules-" + kver);
  }
  // Provisioning a fresh image from the archive cannot fail.
  (void)apt.provision(archive.index(), provisioned);

  // Some user data for ransomware to chew on.
  (void)machine.fs().create_file("/home/user/notes.txt", to_bytes("notes"), false);
  (void)machine.fs().create_file("/home/user/finances.ods", to_bytes("data"), false);

  if (options.snap_enabled) {
    const std::string snap_root = "/snap/core20/1891";
    (void)machine.fs().mount(snap_root, vfs::FsType::kSquashfs,
                             /*namespace_truncated=*/true);
    const std::vector<std::pair<std::string, std::string>> snap_bins = {
        {snap_root + "/usr/bin/snaptool", "elf:snap:snaptool"},
        {snap_root + "/bin/jqlite", "elf:snap:jqlite"},
    };
    for (const auto& [path, content] : snap_bins) {
      (void)machine.fs().create_file(path, to_bytes(content), true);
      snap_host_paths_.push_back(path);
      snap_visible_paths_.push_back(machine.fs().ima_visible_path(path));
    }
  }
}

Status Testbed::enroll() {
  if (Status s = agent_->register_with(keylime::Registrar::address()); !s.ok()) {
    return s;
  }
  return verifier.add_agent(agent_->agent_id(), agent_->address());
}

void Testbed::attest() {
  (void)verifier.attest_once(agent_->agent_id());
}

keylime::RuntimePolicy scan_machine_policy(const oskernel::Machine& machine,
                                           bool exclude_tmp) {
  keylime::RuntimePolicy policy;
  if (exclude_tmp) policy.exclude("/tmp/*");
  for (const std::string& path : machine.fs().list_files("/")) {
    if (exclude_tmp && starts_with(path, "/tmp/")) continue;
    const auto st = machine.fs().stat(path);
    if (!st.ok() || !st.value().executable) continue;
    policy.allow(path, st.value().content_hash);
  }
  return policy;
}

keylime::RuntimePolicy scrub_container_prefixes(
    const keylime::RuntimePolicy& policy, const oskernel::Machine& machine,
    std::size_t* rewritten) {
  keylime::RuntimePolicy scrubbed;
  for (const std::string& glob : policy.excludes()) scrubbed.exclude(glob);
  std::size_t rewrites = 0;
  policy.for_each_path([&](const std::string& path,
                           const std::vector<crypto::Digest>& hashes) {
    const std::string visible = machine.fs().ima_visible_path(path);
    if (visible != path) ++rewrites;
    for (const crypto::Digest& h : hashes) scrubbed.allow(visible, h);
  });
  if (rewritten) *rewritten = rewrites;
  return scrubbed;
}

}  // namespace cia::experiments
