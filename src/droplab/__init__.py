"""droplab: dropout training and bound verification for Poisson topic models.

The library samples documents from Poisson topic models, trains linear
classifiers on binomially thinned counts, and verifies the analytical
machinery connecting the thinned and raw error rates: Gaussian score
approximations with Berry-Esseen control, the error-exponentiation bound,
posterior preservation under thinning, and topic-margin separability.
"""

from .bounds import (BERRY_ESSEEN_CONSTANT, BerryEsseenReport, BoundReport,
                     MarginReport, RankDeficientError, altitude_error_bound,
                     berry_esseen_check, gaussian_error_estimate,
                     gaussian_tail_check, margin_condition, normal_cdf)
from .classifiers import (DegenerateDataError, EmptyDataError,
                          LinearClassifier, TrainConfig, error_by_topic,
                          evaluate_error, recalibrate_intercept,
                          train_logistic, train_logistic_dropout,
                          train_naive_bayes)
from .corpus import (EmptyClassError, MalformedLineError, SplitSpec,
                     load_corpus, tokenize)
from .diagnostics import (RiskDecomposition, ZeroVarianceError,
                          berry_esseen_statistic, excess_risk_decomposition,
                          score_moments)
from .dropout import (DropoutConfig, dropout_posterior, thin_counts,
                      thinned_model)
from .experiments import VERSION as __version__
from .experiments import (BiasCheckReport, CurveRecord, CurveResult, CurveSpec,
                          InfluenceDemoReport, SweepConfig, SweepResult,
                          curve_csv, curve_summary, fit_classifier,
                          influence_demo_model, run_altitude_sweep,
                          run_bias_check, run_influence_demo,
                          run_learning_curves)
from .streams import make_rng, seed_fingerprint
from .topics import (BayesErrorResult, DocumentBatch,
                     EnumerationTooLargeError, GenerativeSampler, Topic,
                     TopicModel, UndefinedPosteriorError, bayes_error,
                     bayes_posterior, build_synthetic_model, sample_documents)
