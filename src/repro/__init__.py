"""repro: a full reproduction of *OpenEI: An Open Framework for Edge Intelligence*.

The package is organised as the paper's system plus every substrate it
depends on:

``repro.core``
    The OpenEI framework proper: the ALEM capability tuple, the model
    selector (Eq. 1 and an RL-based variant), the package manager with its
    real-time machine-learning module, the optimized model zoo and the
    top-level :class:`~repro.core.openei.OpenEI` orchestrator.
``repro.nn``
    A lightweight, from-scratch deep-learning package (the TensorFlow-Lite
    analogue) built on NumPy.
``repro.compression``
    Model-compression techniques of Table I: pruning, quantization,
    weight sharing, low-rank factorization and knowledge distillation.
``repro.eialgorithms``
    Edge-native algorithms: MobileNet, SqueezeNet, Bonsai, ProtoNN,
    FastGRNN and EMI-RNN style models.
``repro.hardware``
    Analytical edge-device models and the ALEM profiler.
``repro.runtime``
    The edge running-environment simulator (tasks, real-time scheduling,
    resources, computation migration).
``repro.collaboration``
    Cloud-edge and edge-edge collaboration: the three EI dataflows,
    transfer learning, federated aggregation and DDNN early-exit inference.
``repro.serving``
    libei: the RESTful API of Fig. 6 on a threaded keep-alive HTTP server.
``repro.data``
    Sensor simulators, the realtime/historical data store and workload
    generators.
``repro.loadgen``
    Open-loop, arrival-time-driven load generation: replayable traces
    (constant-rate, Poisson), the replay harness the chaos suite
    drives, and trace-scheduled fault injection.
``repro.apps``
    The four application scenarios: public safety, connected vehicles,
    smart home and connected health.
"""

from repro.version import __version__

__all__ = ["__version__"]
