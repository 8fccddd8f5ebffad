"""Width-slimmable model banks for unsupervised domain adaptation.

Train one weight-sharing bank of fully connected networks at many widths
on a labelled source domain and an unlabelled target domain, distill a
confidence-weighted ensemble of the large sub-models into every
sub-model's deployment head, then pick architectures under FLOPs budgets
with a label-free anchor-discrepancy score.
"""

from .autodiff import SgdState, Tensor, backward, gradients, lr_schedule, sgd_step
from .checkpoint import load_checkpoint, save_checkpoint
from .datasets import (
    DEFAULT_TASK,
    DomainDataset,
    ShiftSpec,
    batches,
    load_dataset,
    make_dataset,
    save_dataset,
)
from .errors import (
    ConfigError,
    LabelLeakageError,
    NumericError,
    SearchError,
    SlimAdaptError,
    UsageError,
)
from .losses import DcLossParts, domain_confusion_targets
from .search import (
    CorrelationReport,
    DiscrepancyScore,
    SearchPlan,
    SearchStep,
    anchor_discrepancy,
    config_accuracy,
    correlate,
    inherited_greedy_search,
    monotonicity_probe,
    random_bands,
)
from .seeding import named_rng
from .slimnet import (
    Architecture,
    BnStats,
    ParamStore,
    SlimModel,
    WidthConfig,
    adabn_recalibrate,
    flops_per_sample,
)
from .trainer import (
    ConfidencePolicy,
    TrainerConfig,
    confidence,
    deploy_head,
    distillation_loss,
    ensemble,
    init_bank,
    sample_width_configs,
    sharpen,
    train,
    train_step,
    train_step_baseline,
    train_step_inplaced,
)

__version__ = "0.1.0"
