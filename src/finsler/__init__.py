"""Numerical Berwald/Finsler geometry toolkit.

Given a fundamental function L(x, y) on a coordinate chart, computes
the metric tensor and structural frame, the geodesic spray and Berwald
connection, the curvature/torsion/deviation tensors, extracts the
scalar flag curvature, verifies the characterization identities for
scalar- and constant-curvature spaces, and classifies metrics.
"""

__version__ = "0.1.0"

from .catalog import (CATALOG, CatalogEntry, build_catalog_metric,
                      default_metrics, euclidean, funk,
                      perturbed_riemannian, randers_pflat,
                      riemannian_space_form)
from .dsl import (MetricAst, ast_to_source, eval_ast, metric_from_dsl,
                  parse_metric)
from .engine import ChartJets, chart
from .errors import (ArityError, ConfigError, DegenerateMetric,
                     DimensionTooSmall, DomainError, DslError,
                     DslSyntaxError, EvalDomainError, FinslerError,
                     HomogeneityError, IndexOutOfRange,
                     InternalInconsistency, OrderUnsupported,
                     UnknownIdentifier)
from .fdpipe import FDPipeline
from .metric import FinslerMetric, SamplePoint
from .sampling import SamplingSpec, sample_points
from .scalarclass import ClassificationReport, classify
from .suites import SUITES, run_suites

__all__ = [name for name in dir() if not name.startswith("_")]
