#include "circuit/measure.hpp"

#include <cmath>
#include <stdexcept>

namespace rfabm::circuit {

namespace {

/// Observer accumulating the time integral of a differential probe.
class IntegratingObserver : public StepObserver {
  public:
    IntegratingObserver(NodeId p, NodeId n) : p_(p), n_(n) {}

    void prime(double time, const Solution& x) {
        last_time_ = time;
        last_value_ = x.v(p_) - x.v(n_);
        integral_ = 0.0;
        duration_ = 0.0;
    }

    void on_step(double time, const Solution& x, Circuit&) override {
        const double value = x.v(p_) - x.v(n_);
        const double dt = time - last_time_;
        integral_ += 0.5 * (value + last_value_) * dt;
        duration_ += dt;
        last_time_ = time;
        last_value_ = value;
    }

    double average() const { return duration_ > 0.0 ? integral_ / duration_ : last_value_; }

  private:
    NodeId p_;
    NodeId n_;
    double last_time_ = 0.0;
    double last_value_ = 0.0;
    double integral_ = 0.0;
    double duration_ = 0.0;
};

/// Keeps @p observer registered with @p engine for the guard's scope, so an
/// exception out of a run (ConvergenceError, SolveAborted) never leaves the
/// engine holding a pointer to a destroyed observer.
class ObserverGuard {
  public:
    ObserverGuard(TransientEngine& engine, StepObserver& observer)
        : engine_(engine), observer_(observer) {
        engine_.add_observer(&observer_);
    }
    ~ObserverGuard() { engine_.remove_observer(&observer_); }
    ObserverGuard(const ObserverGuard&) = delete;
    ObserverGuard& operator=(const ObserverGuard&) = delete;

  private:
    TransientEngine& engine_;
    StepObserver& observer_;
};

}  // namespace

SettleResult settle_cycle_average(TransientEngine& engine, NodeId p, NodeId n,
                                  const SettleOptions& options) {
    if (options.period <= 0.0) {
        throw std::invalid_argument("settle_cycle_average: period must be positive");
    }
    if (!engine.initialized()) engine.init();

    IntegratingObserver integrator(p, n);
    const ObserverGuard guard(engine, integrator);

    SettleResult result;
    const double window = options.period * options.cycles_per_window;
    const int lookback = std::max(options.lookback, 1);
    std::vector<double> history;  // window averages, oldest first
    int agree_streak = 0;
    for (int w = 0; w < options.max_windows; ++w) {
        integrator.prime(engine.time(), engine.solution());
        engine.run_for(window);
        const double avg = integrator.average();
        result.windows = w + 1;
        result.value = avg;
        history.push_back(avg);
        const bool comparable = static_cast<int>(history.size()) > lookback &&
                                result.windows >= options.min_windows;
        if (comparable) {
            const double reference = history[history.size() - 1 - lookback];
            const double delta = std::fabs(avg - reference);
            if (delta <= options.abs_tol + options.rel_tol * std::fabs(avg)) {
                if (++agree_streak >= options.consecutive) {
                    result.settled = true;
                    break;
                }
            } else {
                agree_streak = 0;
            }
        }
    }
    result.time = engine.time();
    return result;
}

double window_average(TransientEngine& engine, NodeId p, NodeId n, double duration) {
    if (!engine.initialized()) engine.init();
    IntegratingObserver integrator(p, n);
    integrator.prime(engine.time(), engine.solution());
    const ObserverGuard guard(engine, integrator);
    engine.run_for(duration);
    return integrator.average();
}

}  // namespace rfabm::circuit
