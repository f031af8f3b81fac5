import sys
from pathlib import Path

# make the shared oracles and exit_cases modules importable from every test file
sys.path.insert(0, str(Path(__file__).parent))
