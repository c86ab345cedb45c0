"""Persistent data stores used by the paper's case studies."""

from repro.datastores.base import CoreLike
from repro.datastores.btree import FastFairTree
from repro.datastores.cceh import CcehHashTable
from repro.datastores.linkedlist import PersistentLinkedList

__all__ = [
    "CoreLike",
    "FastFairTree",
    "CcehHashTable",
    "PersistentLinkedList",
]
