/**
 * @file
 * Step-down switching voltage regulator (buck converter) loss model.
 *
 * The paper obtains off-chip VR efficiency curves by measurement
 * (Sec. 4.2, Fig. 3). This repo substitutes the standard buck loss
 * decomposition the measured curves follow:
 *
 *   Ploss(ps) = Pq(ps) + ksw(ps) * Vin * Iout + Rcond(ps) * Iout^2
 *
 * where Pq is the fixed controller/gate-drive loss, the middle term
 * models switching losses (proportional to input voltage and load
 * current), and the last term models conduction losses in the power
 * stage. Each VR power state has its own coefficients: PS0 has high
 * fixed losses but low conduction resistance (all phases conducting);
 * deeper states shed phases, cutting Pq at the cost of higher Rcond
 * and a lower current ceiling. Efficiency is Eq. 1 of the paper:
 * eta = Pout / (Pout + Ploss).
 */

#ifndef PDNSPOT_VR_BUCK_VR_HH
#define PDNSPOT_VR_BUCK_VR_HH

#include <array>
#include <optional>
#include <string>

#include "common/units.hh"
#include "vr/vr_power_state.hh"

namespace pdnspot
{

/** Loss coefficients of one VR power state. */
struct BuckStateParams
{
    Power quiescent;         ///< fixed controller + gate-drive loss
    double switchingCoeff;   ///< loss per (Vin * Iout), dimensionless
    Resistance conduction;   ///< effective power-stage resistance
    Current maxCurrent;      ///< state current ceiling
};

/** Full parameter set for a buck VR: one entry per power state. */
struct BuckParams
{
    std::string name;                          ///< rail name, e.g. "V_IN"
    Voltage minHeadroom = volts(0.6);          ///< min Vin - Vout
    std::array<BuckStateParams, 4> states;     ///< indexed by state order

    /** Coefficients of a typical motherboard buck VR (Fig. 3 shape). */
    static BuckParams motherboard(const std::string &rail_name);
};

/**
 * A buck converter with per-power-state loss coefficients.
 *
 * The converter is stateless: callers pass the full operating point
 * (input voltage, output voltage, load current, power state) and get
 * the efficiency or loss back. State selection can be delegated to
 * bestState(), which mimics the autonomous phase-shedding controller
 * in a real VR by picking the feasible state with the least loss.
 */
class BuckVr
{
  public:
    explicit BuckVr(BuckParams params);

    const std::string &name() const { return _params.name; }

    /** Loss coefficients for one state. */
    const BuckStateParams &stateParams(VrPowerState ps) const;

    /**
     * Conversion loss at an operating point.
     *
     * @param vin input voltage (must exceed vout + minHeadroom)
     * @param iout load current (must be within the state ceiling)
     */
    Power loss(Voltage vin, Voltage vout, Current iout,
               VrPowerState ps) const;

    /** Eq. 1: Pout / (Pout + Ploss). Zero load gives zero. */
    double efficiency(Voltage vin, Voltage vout, Current iout,
                      VrPowerState ps) const;

    /**
     * The feasible power state with the least loss at this operating
     * point, or std::nullopt if the current exceeds even PS0's
     * ceiling.
     */
    std::optional<VrPowerState> bestState(Voltage vin, Voltage vout,
                                          Current iout) const;

    /**
     * Efficiency with autonomous state selection. Current above the
     * PS0 ceiling is a configuration error (the rail was under-sized).
     */
    double efficiencyAuto(Voltage vin, Voltage vout, Current iout) const;

    /** Input power for a given output power with autonomous states. */
    Power inputPower(Voltage vin, Voltage vout, Power pout) const;

    /** Validity check used by callers before requesting conversion. */
    bool canConvert(Voltage vin, Voltage vout) const;

  private:
    static size_t index(VrPowerState ps);

    /** fatal() unless canConvert(vin, vout). */
    void checkHeadroom(Voltage vin, Voltage vout) const;

    BuckParams _params;
};

} // namespace pdnspot

#endif // PDNSPOT_VR_BUCK_VR_HH
