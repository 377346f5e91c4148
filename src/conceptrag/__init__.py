"""conceptrag: AMR concept distillation and concept-based RAG evaluation."""

__version__ = "0.1.0"
