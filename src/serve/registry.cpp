#include "serve/registry.h"

#include <utility>

#include "obs/event.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace rn::serve {

namespace {

struct RegistryMetrics {
  obs::Gauge& models = obs::Registry::global().gauge("serve.registry.models");
  obs::Counter& loads =
      obs::Registry::global().counter("serve.registry.loads_total");
  obs::Counter& reloads =
      obs::Registry::global().counter("serve.registry.reloads_total");
  obs::Counter& misses =
      obs::Registry::global().counter("serve.registry.misses_total");
};

RegistryMetrics& metrics() {
  static RegistryMetrics m;
  return m;
}

}  // namespace

ModelRegistry::Entry::Entry(std::string name, std::string source,
                            std::unique_ptr<core::RouteNet> model,
                            std::uint64_t version, const ServerConfig& cfg)
    : name_(std::move(name)),
      source_(std::move(source)),
      version_(version),
      model_(std::move(model)),
      server_(std::make_unique<InferenceServer>(*model_, cfg)) {}

ModelRegistry::ModelRegistry(ServerConfig server_cfg)
    : server_cfg_(server_cfg), deadline_s_(server_cfg.batch_deadline_s) {
  RN_CHECK(server_cfg_.batch_deadline_s >= 0.0,
           "batch deadline must be >= 0");
  snapshot_ = std::make_shared<const Snapshot>();
}

ModelRegistry::~ModelRegistry() {
  // Dropping the snapshot drains every entry still owned solely by the
  // registry; handles held elsewhere drain when their owners let go.
  store_snapshot(std::make_shared<const Snapshot>());
}

std::shared_ptr<const ModelRegistry::Snapshot> ModelRegistry::load_snapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void ModelRegistry::store_snapshot(std::shared_ptr<const Snapshot> next) {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_.swap(next);
  }
  // `next` now holds the previous snapshot. Dropping it may drain and join
  // an entry's server, so that happens after the lock is released.
}

std::uint64_t ModelRegistry::swap_in(const std::string& name,
                                     const std::string& source,
                                     std::unique_ptr<core::RouteNet> model) {
  RN_CHECK(!name.empty(), "model name must be non-empty");
  RN_CHECK(model != nullptr, "model must be non-null");
  // Validate before the swap: a model that loads but carries no
  // parameters would serve garbage silently.
  RN_CHECK(model->num_parameters() > 0, "model has no parameters");
  const std::size_t params = model->num_parameters();

  std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<const Snapshot> old = load_snapshot();
  std::uint64_t version = 1;
  if (const auto it = old->find(name); it != old->end()) {
    version = it->second->version() + 1;
  }
  ServerConfig cfg = server_cfg_;
  cfg.batch_deadline_s = deadline_s_.load(std::memory_order_relaxed);
  auto entry = std::make_shared<Entry>(name, source, std::move(model),
                                       version, cfg);
  auto next = std::make_shared<Snapshot>(*old);
  (*next)[name] = std::move(entry);
  const std::size_t models = next->size();
  store_snapshot(std::move(next));

  metrics().models.set(static_cast<double>(models));
  metrics().loads.add();
  if (obs::EventSink::global().enabled()) {
    obs::Event ev("serve.registry.swap");
    ev.f("model", name)
        .f("version", version)
        .f("source", source.empty() ? std::string_view("<memory>") : source)
        .f("parameters", params);
    obs::EventSink::global().emit(ev);
  }
  return version;
}

std::uint64_t ModelRegistry::load(const std::string& name,
                                  const std::string& path) {
  // Load + validate entirely off to the side; the snapshot only changes
  // once the new model is known-good (in-flight requests never see a
  // half-loaded model, and a bad file leaves the old one serving).
  auto model = std::make_unique<core::RouteNet>(core::RouteNet::load(path));
  return swap_in(name, path, std::move(model));
}

std::uint64_t ModelRegistry::install(const std::string& name,
                                     std::unique_ptr<core::RouteNet> model) {
  return swap_in(name, /*source=*/"", std::move(model));
}

std::uint64_t ModelRegistry::reload(const std::string& name) {
  const Handle entry = acquire(name);
  RN_CHECK(!entry->source().empty(),
           "model '" + name + "' was installed in-memory; nothing to reload");
  const std::uint64_t version = load(name, entry->source());
  metrics().reloads.add();
  return version;
}

void ModelRegistry::remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<const Snapshot> old = load_snapshot();
  if (old->find(name) == old->end()) throw UnknownModelError(name);
  auto next = std::make_shared<Snapshot>(*old);
  next->erase(name);
  const std::size_t models = next->size();
  store_snapshot(std::move(next));
  metrics().models.set(static_cast<double>(models));
}

ModelRegistry::Handle ModelRegistry::acquire(const std::string& name) const {
  const std::shared_ptr<const Snapshot> snap = load_snapshot();
  const auto it = snap->find(name);
  if (it == snap->end()) {
    metrics().misses.add();
    throw UnknownModelError(name);
  }
  return it->second;
}

std::vector<ModelRegistry::ModelInfo> ModelRegistry::list() const {
  const std::shared_ptr<const Snapshot> snap = load_snapshot();
  std::vector<ModelInfo> out;
  out.reserve(snap->size());
  for (const auto& [name, entry] : *snap) {
    out.push_back({name, entry->source(), entry->version(),
                   entry->model().num_parameters()});
  }
  return out;
}

std::size_t ModelRegistry::size() const { return load_snapshot()->size(); }

void ModelRegistry::set_batch_deadline(double seconds) {
  RN_CHECK(seconds >= 0.0, "batch deadline must be >= 0");
  deadline_s_.store(seconds, std::memory_order_relaxed);
  const std::shared_ptr<const Snapshot> snap = load_snapshot();
  for (const auto& [name, entry] : *snap) {
    entry->server().set_batch_deadline(seconds);
  }
}

double ModelRegistry::batch_deadline_s() const {
  return deadline_s_.load(std::memory_order_relaxed);
}

}  // namespace rn::serve
