/**
 * @file
 * Standard-cell library model.
 *
 * The paper synthesizes with Synopsys Design Compiler against the 45nm
 * Nangate Open Cell Library; we stand in an analytic model whose cell
 * areas follow the public Nangate X1-drive datasheet values and whose
 * switching energies / leakage / delays are 45nm-class estimates. The
 * experiments consume *relative* area/power/delay across block designs,
 * which these constants preserve; absolute calibration notes live in
 * DESIGN.md, "Reconstruction notes".
 */

#ifndef SCDCNN_HW_GATES_H
#define SCDCNN_HW_GATES_H

#include <cstddef>
#include <string>

namespace scdcnn {
namespace hw {

/** Cells used by the SC-DCNN structural cost builders. */
enum class Cell
{
    Inv,
    Nand2,
    Nor2,
    And2,
    Or2,
    Xor2,
    Xnor2,
    Mux2,
    Dff,
    HalfAdder,
    FullAdder,
};

/** Per-cell physical parameters. */
struct CellParams
{
    double area_um2;     //!< placed cell area
    double energy_fj;    //!< switching energy per output toggle
    double leakage_nw;   //!< static leakage power
    double delay_ns;     //!< pin-to-pin propagation delay
};

/** Parameters of one cell type. */
const CellParams &cellParams(Cell cell);

/** Cell display name. */
std::string cellName(Cell cell);

/** Global clock assumed by the paper's Table 6 (delay = 5 ns * L). */
constexpr double kClockNs = 5.0;

/** Clock frequency implied by kClockNs. */
constexpr double kClockHz = 1e9 / kClockNs;

/** Toggle activity assumed on stochastic data paths (~p=0.5 streams). */
constexpr double kActivity = 0.5;

} // namespace hw
} // namespace scdcnn

#endif // SCDCNN_HW_GATES_H
