"""Behavioral simulator of the human glottal voice source as a circuit.

Steady lung pressure becomes a DC drive voltage; two oscillator-gated fold
stages (linear + compressive below, linear + expansive above) form a series
resistor network whose common current is the glottal flow.  The package
covers the pressure/voltage mapping, the pulse generators, element and
translinear-block laws with their feedback emulation, the quasi-static
network solve, waveform analysis, and CSV/WAV/report output behind a CLI.
"""

from .analysis import (AnalysisReport, analyze, derivative, detect_phases,
                       estimate_f0, pulse_peaks)
from .config import RunConfig, parse_config, serialize_config, validate_config
from .elements import (ElementKind, FeedbackState, ResistorElement,
                       TranslinearSpec, device_current, rectify,
                       settle_feedback)
from .errors import (ConfigError, ElementOpenError, FeedbackSettleError,
                     GlottisimError, InsufficientPulsesError, ModelDomainError,
                     SolverError)
from .exporters import export_csv, export_wav, format_report, read_waveform_csv
from .network import (FoldStage, GlottalCircuit, GlottalWaveform,
                      conductance_traces, simulate, simulate_many,
                      solve_series_current)
from .oscillator import OscillatorConfig
from .pressure import (DcVoltage, PressureCmH2O, pressure_to_voltage,
                       voltage_to_pressure)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "analyze", "derivative", "detect_phases", "estimate_f0",
    "pulse_peaks", "RunConfig", "parse_config", "serialize_config",
    "validate_config", "ElementKind", "FeedbackState", "ResistorElement",
    "TranslinearSpec", "device_current", "rectify", "settle_feedback",
    "ConfigError", "ElementOpenError", "FeedbackSettleError", "GlottisimError",
    "InsufficientPulsesError", "ModelDomainError", "SolverError", "export_csv",
    "export_wav", "format_report", "read_waveform_csv", "FoldStage",
    "GlottalCircuit", "GlottalWaveform", "conductance_traces", "simulate",
    "simulate_many", "solve_series_current", "OscillatorConfig",
    "DcVoltage", "PressureCmH2O", "pressure_to_voltage", "voltage_to_pressure",
]
