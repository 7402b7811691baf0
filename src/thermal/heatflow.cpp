#include "thermal/heatflow.h"

#include <cmath>

#include "dc/crac.h"
#include "util/check.h"

namespace tapo::thermal {

HeatFlowModel::HeatFlowModel(const dc::DataCenter& dc) : dc_(dc) {
  const std::size_t nc = dc.num_cracs();
  const std::size_t nn = dc.num_nodes();
  const std::size_t n = nc + nn;
  TAPO_CHECK_MSG(dc.alpha.rows() == n && dc.alpha.cols() == n,
                 "alpha dimensions do not match the data center");

  // G(j, i) = alpha(i, j) * F_i / F_j : weight of source i's outlet in sink
  // j's inlet. Flow balance (Appendix B constraint 2) makes rows sum to 1.
  g_ = solver::Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    const double fj = dc.entity_flow(j);
    double row_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double a = dc.alpha(i, j);
      TAPO_CHECK_MSG(a >= -1e-9, "negative cross-interference coefficient");
      g_(j, i) = a * dc.entity_flow(i) / fj;
      row_sum += g_(j, i);
    }
    TAPO_CHECK_MSG(std::fabs(row_sum - 1.0) < 1e-5,
                   "inlet flow balance violated (alpha inconsistent)");
  }

  g_cc_ = g_.block(0, 0, nc, nc);
  g_cn_ = g_.block(0, nc, nc, nn);
  g_nc_ = g_.block(nc, 0, nn, nc);
  g_nn_ = g_.block(nc, nc, nn, nn);

  solver::Matrix fixed = solver::Matrix::identity(nn);
  fixed.add_scaled(g_nn_, -1.0);
  fixed_point_.emplace(fixed);
  TAPO_CHECK_MSG(fixed_point_->ok(),
                 "(I - G_nn) singular: some node inlet is fed only by node "
                 "outlets with no path from any CRAC");

  heating_.resize(nn);
  for (std::size_t j = 0; j < nn; ++j) {
    heating_[j] = 1.0 / (dc::kAirDensity * dc::kAirSpecificHeat * dc.node_flow(j));
  }

  // K_p = (I - G_nn)^-1 D maps node power to node outlet temperature; the
  // inlet sensitivities below are the coefficient blocks every Stage-1,
  // baseline and Stage-3 LP reads. None of this depends on the CRAC
  // setpoints.
  solver::Matrix d(nn, nn);
  for (std::size_t j = 0; j < nn; ++j) d(j, j) = heating_[j];
  const solver::Matrix k_p = fixed_point_->solve(d);
  node_in_coeff_ = g_nn_.multiply(k_p);
  crac_in_coeff_ = g_cn_.multiply(k_p);
}

Temperatures HeatFlowModel::solve(const std::vector<double>& crac_out,
                                  const std::vector<double>& node_power) const {
  const std::size_t nc = dc_.num_cracs();
  const std::size_t nn = dc_.num_nodes();
  TAPO_CHECK(crac_out.size() == nc);
  TAPO_CHECK(node_power.size() == nn);

  // (I - G_nn) Tout_n = G_nc * Tcrac + D * p
  std::vector<double> rhs = g_nc_.multiply(crac_out);
  for (std::size_t j = 0; j < nn; ++j) rhs[j] += heating_[j] * node_power[j];
  std::vector<double> tout_n = fixed_point_->solve(rhs);

  Temperatures temps;
  temps.crac_out = crac_out;
  temps.node_out = tout_n;
  temps.node_in.resize(nn);
  {
    const std::vector<double> from_crac = g_nc_.multiply(crac_out);
    const std::vector<double> from_nodes = g_nn_.multiply(tout_n);
    for (std::size_t j = 0; j < nn; ++j) temps.node_in[j] = from_crac[j] + from_nodes[j];
  }
  temps.crac_in.resize(nc);
  {
    const std::vector<double> from_crac = g_cc_.multiply(crac_out);
    const std::vector<double> from_nodes = g_cn_.multiply(tout_n);
    for (std::size_t i = 0; i < nc; ++i) temps.crac_in[i] = from_crac[i] + from_nodes[i];
  }
  return temps;
}

HeatFlowModel::AffineOffsets HeatFlowModel::offsets(
    const std::vector<double>& crac_out) const {
  const std::size_t nc = dc_.num_cracs();
  const std::size_t nn = dc_.num_nodes();
  TAPO_CHECK(crac_out.size() == nc);

  AffineOffsets off;

  // Tout_n = K_c * Tcrac + K_p * p with K_c = (I-G_nn)^-1 G_nc; the
  // power-sensitivity blocks derived from K_p are precomputed in the
  // constructor, so only the setpoint-dependent offsets are built here.
  const std::vector<double> k_c_t = fixed_point_->solve(g_nc_.multiply(crac_out));

  // node_in = G_nc Tcrac + G_nn Tout_n
  off.node_in0 = g_nc_.multiply(crac_out);
  {
    const std::vector<double> extra = g_nn_.multiply(k_c_t);
    for (std::size_t j = 0; j < nn; ++j) off.node_in0[j] += extra[j];
  }

  // crac_in = G_cc Tcrac + G_cn Tout_n
  off.crac_in0 = g_cc_.multiply(crac_out);
  {
    const std::vector<double> extra = g_cn_.multiply(k_c_t);
    for (std::size_t i = 0; i < nc; ++i) off.crac_in0[i] += extra[i];
  }
  return off;
}

double HeatFlowModel::total_crac_power_kw(const Temperatures& temps) const {
  double total = 0.0;
  for (std::size_t i = 0; i < dc_.num_cracs(); ++i) {
    total += dc_.cracs[i].power_kw(temps.crac_in[i], temps.crac_out[i]);
  }
  return total;
}

bool HeatFlowModel::within_redlines(const Temperatures& temps) const {
  constexpr double kTol = 1e-6;
  for (double t : temps.node_in) {
    if (t > dc_.redline_node_c + kTol) return false;
  }
  for (double t : temps.crac_in) {
    if (t > dc_.redline_crac_c + kTol) return false;
  }
  return true;
}

double HeatFlowModel::node_heating_per_kw(std::size_t node) const {
  TAPO_CHECK(node < heating_.size());
  return heating_[node];
}

}  // namespace tapo::thermal
