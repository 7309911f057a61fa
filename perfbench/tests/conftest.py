import os
import sys

# the benchmark's modules import each other by file name, as they do when
# run as scripts from the perfbench directory
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
