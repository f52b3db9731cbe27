"""Demand estimation for Poisson-arrival choice models with finite inventory.

Customers arrive as a Poisson process and choose among the products still
in stock (optionally walking away); purchases deplete inventory, which
censors what later arrivals can buy.  This package simulates such visits,
evaluates the likelihood of every common observation granularity --
complete paths, purchase transactions with or without timestamps, and
end-of-period sales counts -- and fits the arrival rate and attraction
weights by maximum likelihood, including the stock-out-vector sampling
approximation for sales data.
"""

from .combinatorics import (
    count_stockout_vectors,
    enumerate_stockout_vectors,
    is_feasible,
    sample_stockout_vectors,
)
from .estimation import (
    FitResult,
    catalog_probabilities,
    compile_dataset,
    dataset_log_likelihood,
    fit,
    fit_complete,
    fit_naive,
    naive_rate,
)
from .io import RunConfig, SECTION7_PRESET, read_visits, write_visits
from .likelihood import (
    TruncationPolicy,
    counterexample_bruteforce,
    counterexample_expectations,
    l1_complete,
    l2_choice_sequence,
    l3_transactions_timed,
    l4_integral,
    l4_lauricella,
    l4_transactions,
    l5_sales,
    l6_choice_part,
    l6_generic,
    lauricella_mgf,
)
from .simulate import VisitConfig, simulate_dataset, simulate_visit, visit_rng
from .types import (
    Assortment,
    CompletePath,
    InvalidObservation,
    ModelParams,
    NULL,
    SalesSummary,
    TransactionRecord,
    project_sales,
    project_transactions,
)

__version__ = "0.1.0"
