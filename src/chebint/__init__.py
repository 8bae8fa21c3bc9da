"""chebint: generalized upper Sugeno integrals, positive dependence decisions,
and Chebyshev-type inequality verification on finite and survival-described
spaces."""

from .chebyshev import (CdDomain, HypothesisError, InequalityConfig,
                        InequalityOutcome, PipelineReport, ShapeDomainError,
                        ShapeFunction, Stage, Verdict, any_functions_check,
                        c1_iff_c2, cd_interval, cd_values,
                        check_condition_C2, check_integral_inequality,
                        check_scalar_condition, config, identity_shape,
                        liapunov_check, power_shape, q_corollary_condition,
                        scalar_condition_at, search_commutativity_gap,
                        search_counterexample, shape, sugeno_chebyshev,
                        theorem1_forward)
from .dependence import (DependenceError, DependenceQuery, RangeEscapeError,
                         condition_Z1, is_comonotone, is_m_positively_dependent,
                         measure_supports_all_pairs)
from .exprlang import (EvalError, ExprError, Interval, ParseError,
                       check_monotone, eval_expr, free_vars, parse, pretty)
from .fusion import (FusionError, FusionOp, apply_op, builtin, dominates,
                     eval_op, expr_op, godel_contra_op, godel_op, leq_min,
                     lukasiewicz_op, min_op, prod_op, validate_flags)
from .integral import (IntegralError, IntegralResult, SimpleFunction,
                       integrate_simple, integrate_survival,
                       opposite_sugeno, oracle_grid_integral, q_integral,
                       seminormed, shilkret, simple_function, sugeno)
from .measure import (FiniteSpace, MeasureError, MonotoneMeasure,
                      SurvivalScenario, distorted_probability, dual,
                      from_table, is_minitive, is_subadditive,
                      is_supermodular, necessity_from_possibility, space,
                      survival_scenario)
from .scenarios import (ScenarioError, list_scenarios, load_scenario,
                        load_scenario_file, run_scenario)

__version__ = "0.1.0"
