"""Emissions accounting over a solved dispatch.

Four methods: the certificate-market method (residual-mix factor with a
floor at zero and surplus certificates reported separately), the
location method (annual zone factor on net consumption), and the two
factor-tracked methods (hourly marginal and hourly average factors).
Every method sums over the modelled horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plant import Dispatch
from .types import GridProfile


def emissions_market(import_kw, export_kw, arpp: float, rmf: float) -> tuple[float, float]:
    """Certificate-market emissions [kgCO2e] over the horizon.

    Purchases count at the residual-mix factor after the regulated
    renewable share; each exported MWh earns a certificate that offsets a
    purchased MWh. A net-negative balance is floored at zero, and the
    surplus (negative, certificate-denominated) is returned separately.

    Returns (e_market_kg, surplus_kg) with e_market_kg >= 0 >= surplus_kg
    and at most one of them nonzero.
    """
    raw = (float(import_kw.sum()) * (1.0 - arpp) - float(export_kw.sum())) * rmf
    if raw >= 0.0:
        return raw, 0.0
    return 0.0, raw


def emissions_factor_tracked(import_kw, export_kw, ef_buy, ef_sell) -> float:
    """Hourly factor-tracked emissions [kgCO2e]: imports charged at the
    buy-side factor, exports credited at the sell-side factor. Pass the
    same series twice for a co-located plant."""
    return float(import_kw @ ef_buy - export_kw @ ef_sell)


@dataclass(frozen=True)
class EmissionsReport:
    """All four accounting results over the horizon, as totals and
    per-kg intensities, plus the cross-method difference metrics."""

    e_market_kg: float
    ei_market: float            # kgCO2e/kgH2, floored at 0
    ei_recs: float              # kgCO2e/kgH2, certificate surplus, <= 0
    e_location_kg: float
    ei_location: float
    e_mef_kg: float
    ei_mef: float
    e_aef_kg: float
    ei_aef: float
    d_market: float | None      # undefined when ei_mef == 0
    d_location: float | None
    annual_h2_kg: float
    recs_generated_mwh: float


def difference_metrics(ei_mef: float, ei_market: float, ei_recs: float,
                       ei_location: float) -> tuple[float | None, float | None]:
    """Relative gaps between the marginal-factor intensity and the two
    certified intensities, (d_market, d_location); None when the marginal
    intensity is zero (below 1e-9, so rounding dust does not masquerade
    as a denominator). When the market floor triggered, the certificate
    surplus stands in for the floored market intensity."""
    if abs(ei_mef) < 1e-9:
        return None, None
    scale = abs(ei_mef)
    market = ei_market if ei_market > 0 else ei_recs
    return (ei_mef - market) / scale, (ei_mef - ei_location) / scale


def certify(dispatch: Dispatch, buy: GridProfile,
            sell: GridProfile | None = None) -> EmissionsReport:
    """Run all four accounting methods over a dispatch. Imports use the
    buy zone's factors, exports the sell zone's (same zone when co-located)."""
    if sell is None:
        sell = buy
    imp, exp = dispatch.import_kw, dispatch.export_kw
    h2_kg = float((dispatch.h_comp1_kg + dispatch.h_from_store_kg).sum())
    if h2_kg <= 0:
        raise ValueError("no hydrogen delivered over the horizon")

    # market method: certificates are not zone-specific, factors come
    # from the buy side where the consumption is metered
    e_market, surplus = emissions_market(imp, exp, buy.arpp, buy.rmf)
    e_location = emissions_factor_tracked(
        imp, exp, np.full(imp.size, buy.ef_location), np.full(exp.size, sell.ef_location))
    e_mef = emissions_factor_tracked(imp, exp, buy.mef.values, sell.mef.values)
    e_aef = emissions_factor_tracked(imp, exp, buy.aef.values, sell.aef.values)
    ei_market, ei_recs = e_market / h2_kg, surplus / h2_kg
    ei_location, ei_mef = e_location / h2_kg, e_mef / h2_kg
    d_market, d_location = difference_metrics(ei_mef, ei_market, ei_recs, ei_location)
    return EmissionsReport(
        e_market_kg=e_market,
        ei_market=ei_market,
        ei_recs=ei_recs,
        e_location_kg=e_location,
        ei_location=ei_location,
        e_mef_kg=e_mef,
        ei_mef=ei_mef,
        e_aef_kg=e_aef,
        ei_aef=e_aef / h2_kg,
        d_market=d_market,
        d_location=d_location,
        annual_h2_kg=h2_kg,
        recs_generated_mwh=float(exp.sum()) / 1000.0,
    )
